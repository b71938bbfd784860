"""Synthetic corpora standing in for the paper's IMDB/DBLP datasets.

The paper's experiments run over the IMDB actor/movie table (7M rows) and
DBLP.  Those datasets are not redistributable, so this module generates
corpora with the same *structural* properties the algorithms are sensitive
to:

* a heavily skewed (Zipfian) word-frequency distribution — this is what
  creates the short rare-token lists and long frequent-token lists that SF's
  idf ordering exploits;
* words built from a shared syllable inventory — so different words share
  3-grams, giving realistic inverted-list length skew and partial matches;
* a word-length distribution covering the paper's query buckets (1–5,
  6–10, 11–15, 16–20 grams per word);
* every word tagged with an identifier for its (row, column, position) in
  the generated record table, mirroring the paper's 8-byte location ids.

Nothing downstream depends on the text being *English*; only the
distributional shape matters, and that is controlled here directly.
"""

from __future__ import annotations

import random
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.collection import SetCollection
from ..core.errors import ConfigurationError
from ..core.tokenize import QGramTokenizer

# Syllable inventory: short cores plus longer name-like suffixes, so that
# generated words overlap in q-grams the way real names do.
_SYLLABLES = [
    "an", "ar", "er", "in", "on", "en", "or", "al", "el", "ri",
    "ma", "co", "de", "lo", "sa", "ta", "mi", "ro", "li", "na",
    "ber", "ton", "ing", "son", "man", "ley", "sen", "dor", "vik", "las",
    "field", "ville", "berg", "worth", "stein", "wood", "ford", "land",
    "smith", "gard",
]

_FIRST_NAMES_HINT = ["jo", "al", "an", "ma", "el", "ch", "be", "da"]


class WordGenerator:
    """Deterministic generator of name-like words."""

    def __init__(self, seed: int = 2008) -> None:
        self._rng = random.Random(seed)

    #: Probability of a word having 1..5 syllables.  Skewed short, like the
    #: word-length distribution of real name/title corpora (IMDB words are
    #: mostly 4-8 characters); this is what makes Length Boundedness prune
    #: *more* for longer queries (Figures 6b/7b).
    SYLLABLE_WEIGHTS = (0.38, 0.34, 0.16, 0.08, 0.04)

    def word(self, min_syllables: int = 1, max_syllables: int = 5) -> str:
        rng = self._rng
        choices = range(min_syllables, max_syllables + 1)
        weights = self.SYLLABLE_WEIGHTS[
            min_syllables - 1 : max_syllables
        ]
        n = rng.choices(list(choices), weights=list(weights), k=1)[0]
        parts = [rng.choice(_SYLLABLES) for _ in range(n)]
        if rng.random() < 0.3:
            parts.insert(0, rng.choice(_FIRST_NAMES_HINT))
        word = "".join(parts)
        if rng.random() < 0.15:  # occasional odd letter, as in real data
            pos = rng.randrange(len(word) + 1)
            word = word[:pos] + rng.choice("abcdefghijklmnopqrstuvwxyz") + word[pos:]
        return word

    def vocabulary(
        self,
        size: int,
        min_syllables: int = 1,
        max_syllables: int = 5,
    ) -> List[str]:
        """``size`` *distinct* words."""
        seen = set()
        out: List[str] = []
        attempts = 0
        while len(out) < size:
            w = self.word(min_syllables, max_syllables)
            attempts += 1
            if w not in seen:
                seen.add(w)
                out.append(w)
            if attempts > 50 * size:
                raise ConfigurationError(
                    "syllable inventory too small for requested vocabulary"
                )
        return out


def zipf_weights(n: int, exponent: float = 1.0) -> List[float]:
    """Unnormalized Zipf weights 1/rank^exponent for ranks 1..n."""
    return [1.0 / (rank ** exponent) for rank in range(1, n + 1)]


def generate_records(
    num_records: int,
    vocabulary_size: int = 2000,
    words_per_record: Tuple[int, int] = (2, 4),
    zipf_exponent: float = 1.0,
    seed: int = 2008,
) -> List[str]:
    """IMDB-like records: each a few space-separated words, Zipf-sampled.

    Returns the record strings; use :func:`word_occurrences` /
    :func:`build_word_collection` to get the word-level database the
    paper's experiments search over.
    """
    rng = random.Random(seed)
    vocab = WordGenerator(seed).vocabulary(vocabulary_size)
    # Cumulative weights once: ``weights=`` would re-sum the whole
    # vocabulary per record.  The random stream is the same either way.
    cum_weights = list(accumulate(zipf_weights(vocabulary_size, zipf_exponent)))
    lo, hi = words_per_record
    records = []
    for _ in range(num_records):
        k = rng.randint(lo, hi)
        records.append(" ".join(rng.choices(vocab, cum_weights=cum_weights, k=k)))
    return records


class WordLocation:
    """The paper's 8-byte location id: (row, position) of a word occurrence."""

    __slots__ = ("word", "row", "position")

    def __init__(self, word: str, row: int, position: int) -> None:
        self.word = word
        self.row = row
        self.position = position

    def packed(self) -> int:
        """Pack into a single integer (40-bit row, 24-bit position)."""
        return (self.row << 24) | (self.position & 0xFFFFFF)

    def __repr__(self) -> str:
        return f"WordLocation({self.word!r}, row={self.row}, pos={self.position})"


def word_occurrences(records: Sequence[str]) -> List[WordLocation]:
    """Every word occurrence across the records, with its location."""
    out: List[WordLocation] = []
    for row, record in enumerate(records):
        for position, word in enumerate(record.split()):
            out.append(WordLocation(word, row, position))
    return out


def distinct_words(records: Sequence[str]) -> List[str]:
    """Distinct words across the records, in first-appearance order."""
    seen: Dict[str, None] = {}
    for record in records:
        for word in record.split():
            seen.setdefault(word)
    return list(seen)


def build_word_collection(
    words: Iterable[str],
    q: int = 3,
    tokenizer: Optional[QGramTokenizer] = None,
) -> SetCollection:
    """The word-level database of the experiments: one set of q-grams per
    word, payload = the word itself."""
    tok = tokenizer or QGramTokenizer(q=q)
    return SetCollection.from_strings(list(words), tok)


_TITLE_WORDS = [
    "efficient", "scalable", "approximate", "indexing", "queries",
    "similarity", "joins", "streams", "mining", "learning", "graphs",
    "databases", "optimization", "parallel", "distributed", "adaptive",
    "robust", "incremental", "probabilistic", "semantic",
]


def generate_dblp_records(
    num_records: int,
    num_authors: int = 800,
    seed: int = 2008,
) -> List[str]:
    """DBLP-like records: author names plus a paper-title word mix.

    The paper reports that "results for DBLP followed identical trends";
    this generator provides the second corpus flavour so the trend claim
    can be checked too: records are longer than IMDB-style ones (2-3
    authors + 4-8 title words) and the title vocabulary is small and very
    skewed, while author names come from the open-ended name generator.
    """
    rng = random.Random(seed)
    authors = WordGenerator(seed + 1).vocabulary(num_authors)
    author_cum = list(accumulate(zipf_weights(num_authors, 0.8)))
    title_cum = list(accumulate(zipf_weights(len(_TITLE_WORDS), 0.7)))
    records = []
    for _ in range(num_records):
        names = rng.choices(authors, cum_weights=author_cum,
                            k=rng.randint(2, 3))
        title = rng.choices(_TITLE_WORDS, cum_weights=title_cum,
                            k=rng.randint(4, 8))
        records.append(" ".join(names + title))
    return records


def generate_word_database(
    num_records: int = 2000,
    vocabulary_size: int = 1500,
    q: int = 3,
    seed: int = 2008,
) -> Tuple[SetCollection, List[str]]:
    """End-to-end: records -> distinct words -> q-gram SetCollection.

    Returns ``(collection, words)`` with ``collection[i].payload == words[i]``.
    """
    records = generate_records(
        num_records, vocabulary_size=vocabulary_size, seed=seed
    )
    words = distinct_words(records)
    return build_word_collection(words, q=q), words
