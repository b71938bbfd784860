"""The benchmark's corpus generator must match the library's record for
record: same RNG stream, only the cumulative weights are hoisted."""

import pytest

from perfbench.corpus import generate_records
from repro.data.synthetic import generate_records as library_records


@pytest.mark.parametrize("seed", [2008, 7])
def test_identical_records_at_4k(seed):
    assert generate_records(4000, vocabulary_size=2000, seed=seed) == (
        library_records(4000, vocabulary_size=2000, seed=seed)
    )


def test_identical_records_with_other_shape():
    kwargs = dict(vocabulary_size=300, words_per_record=(1, 6),
                  zipf_exponent=1.3, seed=11)
    assert generate_records(500, **kwargs) == library_records(500, **kwargs)
