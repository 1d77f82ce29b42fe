"""Subword text embeddings — an offline FastText substitute.

The paper's header-matching step computes FastText embeddings for column
names and for the ontology's semantic types, and uses their cosine similarity
as a prediction confidence.  Pretrained FastText vectors cannot be shipped in
this offline reproduction, so :class:`SubwordEmbedder` provides the same
interface with two components:

* a **character n-gram hashing** component (the core FastText idea): every
  word is the normalised bag of its character 3–5 grams, each hashed into a
  fixed-dimensional vector with deterministic signs, which makes the
  embedding compositional and robust to abbreviations and misspellings;
* an optional **distributional** component learned with a truncated SVD of a
  word/context co-occurrence matrix built from training "sentences" (here:
  the ontology's labels and synonyms grouped per type, plus corpus headers
  grouped per ground-truth type).  This is what lets ``income`` land near
  ``salary`` even though they share no subwords.

Vectors are L2-normalised so cosine similarity is a dot product.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.errors import ConfigurationError
from repro.matching.fuzzy import tokenize_header

__all__ = ["SubwordEmbedder", "cosine_similarity"]

#: Shared gram → 64-bit hash cache.  Grams repeat heavily across words (and
#: across embedder instances), and the blake2b call is the hot spot of the
#: n-gram component, so hashes are computed once per distinct gram.
_HASH_CACHE: dict[str, int] = {}
_HASH_CACHE_MAX = 1 << 20


def cosine_similarity(first: np.ndarray, second: np.ndarray) -> float:
    """Cosine similarity of two vectors, 0.0 when either is all-zero."""
    norm_a = float(np.linalg.norm(first))
    norm_b = float(np.linalg.norm(second))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(np.dot(first, second) / (norm_a * norm_b))


def _stable_hash(text: str) -> int:
    """A process-independent 64-bit hash (Python's ``hash`` is salted)."""
    cached = _HASH_CACHE.get(text)
    if cached is not None:
        return cached
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    value = int.from_bytes(digest, "little")
    if len(_HASH_CACHE) < _HASH_CACHE_MAX:
        _HASH_CACHE[text] = value
    return value


class SubwordEmbedder:
    """Character n-gram hashing embeddings with an optional learned component.

    Parameters
    ----------
    ngram_dim:
        Dimensionality of the hashed character n-gram component.
    context_dim:
        Dimensionality of the learned distributional component (used only
        after :meth:`fit`).
    ngram_range:
        Inclusive range of character n-gram lengths.
    """

    def __init__(
        self,
        ngram_dim: int = 96,
        context_dim: int = 32,
        ngram_range: tuple[int, int] = (3, 5),
    ) -> None:
        if ngram_dim <= 0 or context_dim < 0:
            raise ConfigurationError("embedding dimensions must be positive")
        if ngram_range[0] < 2 or ngram_range[1] < ngram_range[0]:
            raise ConfigurationError(f"invalid ngram_range {ngram_range}")
        self.ngram_dim = ngram_dim
        self.context_dim = context_dim
        self.ngram_range = ngram_range
        self._word_vectors: dict[str, np.ndarray] = {}
        self._ngram_cache: dict[str, np.ndarray] = {}
        # LRU cache of whole-phrase embeddings.  Cell values and headers
        # repeat constantly across a corpus, so most embed_text calls are hits.
        # Cached vectors are shared with callers and must not be mutated.
        self._phrase_cache: OrderedDict[str, np.ndarray] = OrderedDict()
        self._phrase_cache_max = 8192
        # Cached embedded candidate matrices for most_similar (see below).
        self._candidate_cache: OrderedDict[tuple, tuple[list[str], np.ndarray]] = OrderedDict()
        self._candidate_cache_max = 32
        self._fitted = False
        #: Bumped by every :meth:`fit` so consumers caching state derived from
        #: the learned vectors (e.g. the featurizer's cache token) can detect
        #: an in-place refit even when the vocabulary size happens to match.
        self._fit_version = 0

    # ------------------------------------------------------------- n-gram part
    def _char_ngrams(self, word: str) -> list[str]:
        padded = f"<{word}>"
        low, high = self.ngram_range
        grams = []
        for size in range(low, high + 1):
            if len(padded) < size:
                continue
            grams.extend(padded[i : i + size] for i in range(len(padded) - size + 1))
        # The whole (padded) word is always one feature, as in FastText.
        grams.append(padded)
        return grams

    def _ngram_vector(self, word: str) -> np.ndarray:
        cached = self._ngram_cache.get(word)
        if cached is not None:
            return cached
        # Bulk-hash the grams and scatter-add all ±1 contributions at once;
        # the additions are integer-valued, so the result is order-independent
        # and identical to accumulating gram by gram.
        hashes = np.fromiter(
            (_stable_hash(gram) for gram in self._char_ngrams(word)),
            dtype=np.uint64,
        )
        indices = (hashes % np.uint64(self.ngram_dim)).astype(np.intp)
        signs = np.where((hashes >> np.uint64(32)) % np.uint64(2) == 0, 1.0, -1.0)
        vector = np.zeros(self.ngram_dim, dtype=np.float64)
        np.add.at(vector, indices, signs)
        norm = np.linalg.norm(vector)
        if norm > 0:
            vector /= norm
        self._ngram_cache[word] = vector
        return vector

    # ----------------------------------------------------------- learned part
    @property
    def is_fitted(self) -> bool:
        """Whether a distributional component has been trained."""
        return self._fitted

    @property
    def vocabulary(self) -> list[str]:
        """Words with a learned distributional vector."""
        return list(self._word_vectors)

    def fit(self, sentences: Iterable[Sequence[str]]) -> "SubwordEmbedder":
        """Learn the distributional component from groups of related terms.

        Each *sentence* is a list of strings that belong together (for the
        header matcher: all labels/synonyms/observed headers of one semantic
        type).  Words are embedded by a truncated SVD of the word-by-sentence
        incidence matrix, so words that share sentences get similar vectors.
        """
        tokenised: list[list[str]] = []
        vocabulary: dict[str, int] = {}
        for sentence in sentences:
            tokens: list[str] = []
            for term in sentence:
                tokens.extend(tokenize_header(str(term)))
            if not tokens:
                continue
            tokenised.append(tokens)
            for token in tokens:
                vocabulary.setdefault(token, len(vocabulary))

        self._word_vectors = {}
        # Fitting changes the embedding dimensionality and the learned part:
        # every derived phrase/candidate cache is stale.
        self._phrase_cache.clear()
        self._candidate_cache.clear()
        self._fit_version += 1
        if not tokenised or not vocabulary:
            self._fitted = False
            return self

        counts = np.zeros((len(vocabulary), len(tokenised)), dtype=np.float64)
        for sentence_index, tokens in enumerate(tokenised):
            for token in tokens:
                counts[vocabulary[token], sentence_index] += 1.0

        # Dampen high-frequency words (log counts) and weight rare words up
        # (an IDF-style column/row weighting), then reduce with SVD.
        weighted = np.log1p(counts)
        document_frequency = np.count_nonzero(counts, axis=1).astype(np.float64)
        idf = np.log((1.0 + counts.shape[1]) / (1.0 + document_frequency)) + 1.0
        weighted *= idf[:, None]

        rank = min(self.context_dim, min(weighted.shape))
        if rank == 0:
            self._fitted = False
            return self
        left, singular_values, _ = np.linalg.svd(weighted, full_matrices=False)
        components = left[:, :rank] * singular_values[:rank]
        if rank < self.context_dim:
            padding = np.zeros((components.shape[0], self.context_dim - rank))
            components = np.hstack([components, padding])

        for token, row_index in vocabulary.items():
            vector = components[row_index]
            norm = np.linalg.norm(vector)
            self._word_vectors[token] = vector / norm if norm > 0 else vector
        self._fitted = True
        return self

    # --------------------------------------------------------------- embedding
    @property
    def dim(self) -> int:
        """Total dimensionality of produced embeddings."""
        return self.ngram_dim + (self.context_dim if self._fitted else 0)

    def embed_word(self, word: str) -> np.ndarray:
        """Embed one token: hashed n-grams, plus the learned part when fitted."""
        word = word.lower()
        ngram_part = self._ngram_vector(word)
        if not self._fitted:
            return ngram_part
        learned = self._word_vectors.get(word)
        if learned is None:
            learned = np.zeros(self.context_dim, dtype=np.float64)
        return np.concatenate([ngram_part, learned])

    def embed_text(self, text: str) -> np.ndarray:
        """Embed a phrase as the L2-normalised mean of its token embeddings.

        Results are LRU-cached per phrase (shared with callers — treat the
        returned vector as read-only).
        """
        cached = self._phrase_cache.get(text)
        if cached is not None:
            # The service's executor threads share this cache; a concurrent
            # eviction between the get and the LRU touch is harmless — the
            # vector in hand stays valid.
            try:
                self._phrase_cache.move_to_end(text)
            except KeyError:
                pass
            return cached
        tokens = tokenize_header(text)
        if not tokens:
            vector = np.zeros(self.dim, dtype=np.float64)
        else:
            stacked = np.vstack([self.embed_word(token) for token in tokens])
            mean = stacked.mean(axis=0)
            norm = np.linalg.norm(mean)
            vector = mean / norm if norm > 0 else mean
        self._phrase_cache[text] = vector
        if len(self._phrase_cache) > self._phrase_cache_max:
            try:
                self._phrase_cache.popitem(last=False)
            except KeyError:
                pass
        return vector

    def similarity(self, first: str, second: str) -> float:
        """Cosine similarity of two phrases in ``[-1, 1]`` (usually ``[0, 1]``)."""
        return cosine_similarity(self.embed_text(first), self.embed_text(second))

    def most_similar(
        self, query: str, candidates: Mapping[str, str] | Sequence[str], top_k: int = 5
    ) -> list[tuple[str, float]]:
        """Rank *candidates* by similarity to *query*.

        ``candidates`` may be a sequence of strings (compared directly) or a
        mapping ``{key: text}`` where similarity is computed on the text and
        the key is returned.
        """
        if isinstance(candidates, Mapping):
            items = tuple(candidates.items())
        else:
            items = tuple((candidate, candidate) for candidate in candidates)
        cached = self._candidate_cache.get(items)
        if cached is not None:
            try:
                self._candidate_cache.move_to_end(items)
            except KeyError:  # concurrently evicted; the tuple in hand is valid
                pass
            keys, matrix = cached
        else:
            keys = [key for key, _ in items]
            matrix = (
                np.vstack([self.embed_text(text) for _, text in items])
                if items
                else np.zeros((0, self.dim), dtype=np.float64)
            )
            self._candidate_cache[items] = (keys, matrix)
            if len(self._candidate_cache) > self._candidate_cache_max:
                try:
                    self._candidate_cache.popitem(last=False)
                except KeyError:
                    pass
        # embed_text outputs are L2-normalised (or all-zero), so a plain
        # matrix-vector product gives the cosine similarities directly.
        query_vector = self.embed_text(query)
        similarities = matrix @ query_vector
        ranked = [(key, float(s)) for key, s in zip(keys, similarities)]
        ranked.sort(key=lambda pair: (-pair[1], pair[0]))
        return ranked[:top_k]
