"""Document scoring: the fuzzy-rule ranker and the tf-idf vector baseline.

The fuzzy ranker reads a :class:`FisTemplate`: a :class:`FisConfig` over
the placeholder inputs ``tf``, ``idf`` and ``overlap``, plus
``overlap_weight_ratio``.  The paper expands it per query
(:func:`instantiate_fis`): the ``tf``/``idf`` rules are cloned once per
distinct query term (weighted 1/t for t terms) and the ``overlap`` rules
are weighted a further ``overlap_weight_ratio`` (default 1/6) below that,
because overlap evidence is already partly carried by every per-term rule.
:func:`score_fis` instead fuzzifies per posting: one column of the
postings' tf, the tf 0 of absent cells, idf and overlap, sampled once in
each set of the placeholders' shared prototype that some rule reads.  It
fires the template's own rules once on the query's t x n feature blocks,
so a rule's t clones are t rows of its strengths; it equals
``evaluate(instantiate_fis(...), ...)`` bit for bit.  The numpy calls per
query do not grow with the number of terms or placeholders, and a template
weights its rules for t terms once, on the first query with t terms.

Both scorers read their candidates and features from one
:func:`extract_features` call per query, which reads each query term's
postings once: the candidates are the documents holding any query term
(documents matching no term are never scored).  :func:`score_baseline`
works on the postings alone: one weighted ``np.bincount`` adds each
posting's (tf * idf_raw) * length_norm to its candidate from +0.0, in
query-term order; a term a candidate lacks would add +0.0, so skipping
it changes no bit of the sum.  Both rank in one order: descending score,
ties broken by ascending doc_id.

A :class:`RankedList`'s ``entries`` is a :class:`RankedEntries`: a
sequence backed by two columns (doc ids and a read-only float64 score
array) whose :class:`RankedEntry` items are built on access, each with its
position from 1 as its rank.  Indexing, slicing and iterating it read as a
tuple of entries would, and comparing it with one holds; a scorer builds
no object per entry.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ConfigError, QueryError, RunFormatError
# ``evaluate`` is unused here; perfbench's traced run patches it by this name
from .fis import (FisConfig, LinguisticVariable, _combine, default_variable,
                  evaluate, fire_rule)  # noqa: F401
from .index import (InvertedIndex, QueryFeatures, extract_features,
                    one_word, tokenize)
from .rules import RuleAst, RuleClause, parse_rule

DEFAULT_OVERLAP_WEIGHT_RATIO = 1.0 / 6.0
DEFAULT_CUTOFF = 1000
_PLACEHOLDERS = ("tf", "idf", "overlap")
_PER_TERM = frozenset({"tf", "idf"})


def _mentioned(rule: RuleAst) -> set[str]:
    return {clause.variable for clause in rule.antecedent}


def _check_placeholder_names(names: Iterable[str]) -> None:
    names = sorted(names)
    if names != sorted(_PLACEHOLDERS):
        raise ConfigError(
            "template requires input variables named exactly tf, idf, "
            f"overlap; got {names or 'none'}"
        )


def _check_ratio(overlap_weight_ratio: float) -> None:
    if not overlap_weight_ratio > 0:
        raise ConfigError("overlap_weight_ratio must be positive")


@dataclass(frozen=True)
class FisTemplate:
    """Per-query blueprint for the fuzzy ranker.

    ``config`` is a fuzzy system over the inputs ``tf``, ``idf`` and
    ``overlap``, which share one prototype definition (same universe, same
    sets): every instantiated input variable is a copy of it.  A rule may
    reference tf/idf (a per-term rule) or overlap (a global rule), not both,
    and an overlap rule's weight for a one-term query, the largest it gets
    (weight * ``overlap_weight_ratio``), lies in (0, 1].  A fault of a
    variable or rule names its ``line``.
    """

    config: FisConfig
    overlap_weight_ratio: float = DEFAULT_OVERLAP_WEIGHT_RATIO
    # the weighted rules of each distinct term count, stored by a single
    # assignment, so a concurrent reader sees all of them or none and a
    # duplicate build is an equal tuple
    _rules: dict[int, tuple[RuleAst, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_placeholder_names(v.name for v in self.config.inputs)
        prototype = self.variable_prototype
        for variable in self.config.inputs:
            if (variable.universe, variable.sets) != (prototype.universe,
                                                      prototype.sets):
                raise ConfigError(
                    f"placeholder variable {variable.name!r} differs from "
                    "'tf'; all placeholders must share one prototype "
                    "definition", line=variable.line)
        _check_ratio(self.overlap_weight_ratio)
        for rule in self.config.rules:
            mentioned = _mentioned(rule)
            if mentioned <= _PER_TERM:
                continue
            if mentioned != {"overlap"}:
                raise ConfigError(
                    f"template rule mixes placeholders {sorted(mentioned)}; "
                    "a rule may use tf/idf or overlap, not both",
                    line=rule.line)
            if not 0.0 < rule.weight * self.overlap_weight_ratio <= 1.0:
                raise ConfigError(f"overlap rule weight {rule.weight} * "
                                  "overlap_weight_ratio outside (0, 1]",
                                  line=rule.line)

    @cached_property
    def variable_prototype(self) -> LinguisticVariable:
        return next(v for v in self.config.inputs if v.name == "tf")

    @cached_property
    def _read_labels(self) -> tuple[str, ...]:
        """The prototype sets that some rule reads, in prototype order."""
        read = {clause.label for rule in self.config.rules
                for clause in rule.antecedent}
        return tuple(label for label in self.variable_prototype.sets
                     if label in read)

    def query_rules(self, t: int) -> tuple[RuleAst, ...]:
        """The config's rules, in config order, at their weights for a query
        of ``t`` distinct terms: (rule weight) * 1/t, and a further *
        overlap_weight_ratio for overlap rules; built on the first call
        with ``t``."""
        rules = self._rules.get(t)
        if rules is None:
            if t < 1:
                raise QueryError("query has no terms to rank on")
            term_weight = 1.0 / t
            rules = tuple(
                RuleAst(rule.antecedent, rule.consequent,
                        rule.weight * term_weight
                        if _mentioned(rule) <= _PER_TERM else
                        rule.weight * term_weight * self.overlap_weight_ratio)
                for rule in self.config.rules)
            self._rules[t] = rules
        return rules


def default_template() -> FisTemplate:
    """The bundled relevance template.

    Per term: reward high tf combined with high idf, penalize the opposite.
    Globally: reward high overlap, penalize low overlap.
    """
    rules = (
        "if (tf is high) and (idf is high) -> (relevance is high)",
        "if (tf is not high) and (idf is not high) -> (relevance is not high)",
        "if (overlap is high) -> (relevance is high)",
        "if (overlap is not high) -> (relevance is not high)",
    )
    return FisTemplate(FisConfig(
        inputs=tuple(default_variable(name) for name in _PLACEHOLDERS),
        output=default_variable("relevance"),
        rules=tuple(parse_rule(rule) for rule in rules),
    ))


def instantiate_fis(template: FisTemplate, t: int) -> FisConfig:
    """Expand a template for a query with ``t`` distinct terms, as the paper
    does.

    Inputs become tf_1..tf_t, idf_1..idf_t and overlap.  Per-term rules are
    cloned per term at weight (rule weight) * 1/t; global rules get a
    further * overlap_weight_ratio (see :meth:`FisTemplate.query_rules`).
    The clones come first, term by term, each term's in config order, then
    the global rules in config order.  :func:`score_fis` gives the same
    bits without building this config.
    """
    rules = template.query_rules(t)
    per_term = [rule for rule in rules if _mentioned(rule) <= _PER_TERM]
    global_rules = tuple(rule for rule in rules
                         if not _mentioned(rule) <= _PER_TERM)
    prototype = template.variable_prototype
    inputs = [prototype.renamed(f"{name}_{i}") for name in ("tf", "idf")
              for i in range(1, t + 1)] + [prototype.renamed("overlap")]
    # a per-term rule mentions only tf and idf, each renamed to term i's
    expanded = [RuleAst(tuple(RuleClause(f"{c.variable}_{i}", c.label,
                                         c.negated) for c in rule.antecedent),
                        rule.consequent, rule.weight)
                for i in range(1, t + 1) for rule in per_term]
    return dataclasses.replace(template.config, inputs=tuple(inputs),
                               rules=tuple(expanded) + global_rules)


class RankedEntry(NamedTuple):
    doc_id: str
    score: float
    rank: int


class RankedEntries(Sequence):
    """A ranked list's entries as columns: ``doc_ids`` (a tuple of str) and
    ``scores`` (a read-only float64 array); an entry's rank is its position
    from 1.

    Indexing builds one :class:`RankedEntry`, a slice a tuple of them, and
    the list equals (and hashes as) the tuple of its entries.  It holds no
    object per entry, so the garbage collector has nothing to walk.  It
    keeps its own copies of the columns, so the caller's stay as they were.
    Scores that are not one column of numbers, and columns of different
    lengths, raise :class:`RunFormatError`.
    """

    __slots__ = ("doc_ids", "scores")

    def __init__(self, doc_ids: Iterable[str], scores: Iterable[float]):
        doc_ids = tuple(doc_ids)
        try:
            column = np.array(scores, dtype=np.float64)
        except (TypeError, ValueError):
            column = None
        if column is None or column.ndim != 1:
            raise RunFormatError("ranked scores must be one column of numbers")
        if len(doc_ids) != len(column):
            raise RunFormatError(
                f"ranked columns differ in length: {len(doc_ids)} doc ids, "
                f"{len(column)} scores")
        column.flags.writeable = False
        self.doc_ids = doc_ids
        self.scores = column

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        return RankedEntry(self.doc_ids[i], float(self.scores[i]),
                           range(1, len(self) + 1)[i])

    def __iter__(self):
        return map(RankedEntry, self.doc_ids, self.scores.tolist(), count(1))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class RankedList:
    """Ranked retrieval output for one query.

    Scores are non-increasing; ties are broken by ascending doc_id; ranks
    run contiguously from 1.  ``entries`` given as any other sequence of
    ``(doc_id, score, rank)`` entries is checked and stored as their
    :class:`RankedEntries` columns: ranks must be 1..n in entry order,
    scores finite and doc ids one word each, or :class:`RunFormatError`
    names the topic.  Score order and distinct doc ids are ``parse_run``'s
    checks, not this one's.
    """

    query_id: str
    entries: Sequence[RankedEntry]

    def __post_init__(self):
        if isinstance(self.entries, RankedEntries):
            return
        doc_ids, scores, ranks = tuple(zip(*self.entries)) or ((), (), ())
        topic = f"topic {self.query_id}: "
        try:
            entries = RankedEntries(doc_ids, scores)
        except RunFormatError as error:
            raise RunFormatError(f"{topic}{error}") from None
        for position, (doc_id, score, rank) in enumerate(
                zip(doc_ids, entries.scores.tolist(), ranks), start=1):
            if rank != position:
                raise RunFormatError(f"{topic}rank {rank} out of order "
                                     f"(expected {position})")
            if not math.isfinite(score):
                raise RunFormatError(f"{topic}score {score} at rank {rank} "
                                     "is not finite")
            if not one_word(doc_id):
                raise RunFormatError(f"{topic}doc id {doc_id!r} is empty or "
                                     "contains whitespace")
        object.__setattr__(self, "entries", entries)


def _query_tokens(query_text: str, k: int) -> list[str]:
    """The query's tokens, once the cutoff ``k`` is checked."""
    if k < 1:  # [:k] would count from the end
        raise QueryError(f"k must be >= 1, got {k}")
    return tokenize(query_text)


# a name of its own only so that perfbench's traced run can count candidates
def _candidates(features: QueryFeatures) -> np.ndarray:
    return features.candidates


def _to_ranked_list(index: InvertedIndex, query_id: str,
                    candidates: np.ndarray, scores: np.ndarray,
                    k: int) -> RankedList:
    order = np.lexsort((index.doc_id_ranks[candidates], -scores))[:k]
    doc_ids = tuple(index.doc_id_array[candidates[order]].tolist())
    return RankedList(query_id, RankedEntries(doc_ids, scores[order]))


def score_fis(index: InvertedIndex, template: FisTemplate, query_text: str,
              k: int = DEFAULT_CUTOFF, query_id: str = "1") -> RankedList:
    """Rank candidate documents with the template's fuzzy rules.

    Per candidate, the inputs are normalized tf and idf per distinct query term
    (tf 0 for terms the document lacks, idf 0 for terms the corpus lacks)
    plus the overlap fraction.  They are fuzzified per posting, not per
    (term, candidate) cell: one column holds each posting's tf, then the tf
    0 of every cell whose document lacks the term, then idf and overlap, and
    is sampled once in each prototype set that some rule reads (under the
    default template, ``high`` alone; a negated clause reads its set as 1 -
    degree).  Each set's terms x candidates tf block is that degree at 0,
    overwritten by each posting's degree in its cell.  The template's rules,
    at their per-query weights, fire once on the tf blocks, idf as a terms x
    1 column and overlap as one row; each score equals
    ``evaluate(instantiate_fis(template, t), ...)`` bit for bit.
    """
    features = extract_features(index, _query_tokens(query_text, k))
    t = len(features.terms)
    rules = template.query_rules(t)
    candidates = _candidates(features)
    n, postings = len(candidates), len(features.posting_tf)
    prototype = template.variable_prototype
    # the placeholders share one prototype, so one column fuzzifies them all
    values = np.clip(np.concatenate((features.posting_tf, [0.0],
                                     features.idf, features.overlap)),
                     *prototype.universe)
    cells = np.repeat(np.arange(t), features.dfs), features.columns
    memberships = {}
    for label in template._read_labels:
        degrees = prototype.sets[label].sample(values)
        tf = np.full((t, n), degrees[postings])
        tf[cells] = degrees[:postings]
        memberships["tf", label] = tf
        memberships["idf", label] = degrees[postings + 1:postings + 1 + t,
                                            None]
        memberships["overlap", label] = degrees[postings + 1 + t:]
    config = template.config
    strengths = [fire_rule(rule, memberships, config.and_method)
                 for rule in rules]
    scores = _combine(config, strengths, n)
    return _to_ranked_list(index, query_id, candidates, scores, k)


def score_baseline(index: InvertedIndex, query_text: str,
                   k: int = DEFAULT_CUTOFF, query_id: str = "1") -> RankedList:
    """Rank candidate documents with the summed tf-idf vector formula.

    Per matched term: tf * idf_raw * length_norm, summed over terms in
    query order, then scaled by the overlap (matched fraction of distinct
    query terms, the coordination factor) and the query norm.  length_norm
    is ``index.length_norms``, 1/sqrt(token count), 0 for an empty
    document; the query norm is 1/sqrt(sum of squared idf_raw), 1 when that
    sum is 0.  Candidate set and tie-breaking match :func:`score_fis`.

    The sum is term-at-a-time over the postings (Moffat & Zobel, ACM TOIS
    14(4), 1996): each posting's (tf * idf_raw) * length_norm is added to
    its candidate's accumulator by one weighted ``np.bincount``, which adds
    them one by one from +0.0 in posting order, that is in query-term
    order per candidate.  A term a document lacks would add +0.0, which
    leaves a sum of non-negative terms unchanged, so the scores are those
    of adding every term's contribution in turn, bit for bit.
    """
    features = extract_features(index, _query_tokens(query_text, k))
    candidates = _candidates(features)
    idf_values = features.idf_raw
    norm_sq = sum(v * v for v in idf_values)
    query_norm = 1.0 / math.sqrt(norm_sq) if norm_sq > 0 else 1.0
    contributions = (features.posting_tf
                     * np.array(idf_values).repeat(features.dfs)
                     * index.length_norms[features.ordinals])
    total = np.bincount(features.columns, weights=contributions,
                        minlength=len(candidates))
    scores = total * features.overlap * query_norm
    return _to_ranked_list(index, query_id, candidates, scores, k)
