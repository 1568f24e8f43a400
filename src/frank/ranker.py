"""Document scoring: the fuzzy-rule ranker and the tf-idf vector baseline.

The fuzzy ranker reads a :class:`FisTemplate`: a :class:`FisConfig` over
the placeholder inputs ``tf``, ``idf`` and ``overlap``, plus
``overlap_weight_ratio``.  The paper expands it per query
(:func:`instantiate_fis`): the ``tf``/``idf`` rules are cloned once per
distinct query term (weighted 1/t for t terms) and the ``overlap`` rules
are weighted a further ``overlap_weight_ratio`` (default 1/6) below that,
because overlap evidence is already partly carried by every per-term rule.
:func:`score_fis` instead fires the template's own rules once on the
query's t x n feature block, so a rule's t clones are t rows of its
strengths; it equals ``evaluate(instantiate_fis(...), ...)`` bit for bit.

Both scorers share candidate generation (the union of the query terms'
postings: documents matching no term are never scored) and the ranking
order: descending score, ties broken by ascending doc_id.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ConfigError, QueryError
# ``evaluate`` is unused here; perfbench's traced run patches it by this name
from .fis import (FisConfig, LinguisticVariable, _combine, _memberships,
                  default_variable, evaluate, fire_rule)  # noqa: F401
from .index import InvertedIndex, extract_features, idf_raw, tokenize
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


@dataclass(frozen=True)
class FisTemplate:
    """Per-query blueprint for the fuzzy ranker.

    ``config`` is a fuzzy system over the inputs ``tf``, ``idf`` and
    ``overlap``, which share one prototype definition (same universe, same
    sets): every instantiated input variable is a copy of it.  A rule may
    reference tf/idf (a per-term rule) or overlap (a global rule), not both.
    """

    config: FisConfig
    overlap_weight_ratio: float = DEFAULT_OVERLAP_WEIGHT_RATIO

    def __post_init__(self):
        _check_placeholder_names(v.name for v in self.config.inputs)
        prototype = self.variable_prototype
        for other in self.config.inputs:
            if (other.universe != prototype.universe
                    or other.sets != prototype.sets):
                raise ConfigError(
                    f"placeholder variable {other.name!r} differs from 'tf'; "
                    "all placeholders must share one prototype definition"
                )
        for rule in self.config.rules:
            mentioned = _mentioned(rule)
            if not (mentioned <= _PER_TERM or mentioned == {"overlap"}):
                raise ConfigError(
                    f"template rule mixes placeholders {sorted(mentioned)}; "
                    "a rule may use tf/idf or overlap, not both"
                )
        if not self.overlap_weight_ratio > 0:
            raise ConfigError("overlap_weight_ratio must be positive")
        # weights at t = 1 are the largest; per-term ones equal the config's
        at_one_term = self.query_rules(1)[len(self.per_term_rules):]
        for rule, weighted in zip(self.global_rules, at_one_term):
            if not 0.0 < weighted.weight <= 1.0:
                raise ConfigError(f"overlap rule weight {rule.weight} * "
                                  "overlap_weight_ratio outside (0, 1]")

    @cached_property
    def per_term_rules(self) -> tuple[RuleAst, ...]:
        """The rules over ``tf``/``idf``, in config order."""
        return tuple(rule for rule in self.config.rules
                     if _mentioned(rule) <= _PER_TERM)

    @cached_property
    def global_rules(self) -> tuple[RuleAst, ...]:
        """The rules over ``overlap``, in config order."""
        return tuple(rule for rule in self.config.rules
                     if not _mentioned(rule) <= _PER_TERM)

    @cached_property
    def variable_prototype(self) -> LinguisticVariable:
        return next(v for v in self.config.inputs if v.name == "tf")

    @property
    def output(self) -> LinguisticVariable:
        return self.config.output

    def query_rules(self, t: int) -> tuple[RuleAst, ...]:
        """The per-term rules, then the overlap rules, at their weights for
        a query of ``t`` distinct terms: (rule weight) * 1/t, and a further
        * overlap_weight_ratio for overlap rules."""
        if t < 1:
            raise QueryError("query has no terms to rank on")
        term_weight = 1.0 / t
        return tuple(
            RuleAst(rule.antecedent, rule.consequent,
                    rule.weight * term_weight)
            for rule in self.per_term_rules
        ) + tuple(
            RuleAst(rule.antecedent, rule.consequent,
                    rule.weight * term_weight * self.overlap_weight_ratio)
            for rule in self.global_rules
        )


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
    :func:`score_fis` gives the same bits without building this config.
    """
    rules = template.query_rules(t)
    split = len(template.per_term_rules)
    prototype = template.variable_prototype
    inputs = [prototype.renamed(f"{name}_{i}") for name in ("tf", "idf")
              for i in range(1, t + 1)] + [prototype.renamed("overlap")]
    # a per-term rule mentions only tf and idf, each renamed to term i's
    expanded = [RuleAst(tuple(RuleClause(f"{c.variable}_{i}", c.label,
                                         c.negated) for c in rule.antecedent),
                        rule.consequent, rule.weight)
                for i in range(1, t + 1) for rule in rules[:split]]
    return dataclasses.replace(template.config, inputs=tuple(inputs),
                               rules=tuple(expanded) + rules[split:])


class RankedEntry(NamedTuple):
    doc_id: str
    score: float
    rank: int


@dataclass(frozen=True)
class RankedList:
    """Ranked retrieval output for one query.

    Scores are non-increasing; ties are broken by ascending doc_id; ranks
    run contiguously from 1.
    """

    query_id: str
    entries: tuple[RankedEntry, ...]


def _distinct_query_terms(query_text: str) -> list[str]:
    tokens = tokenize(query_text)
    if not tokens:
        raise QueryError("query is empty after tokenization")
    return list(dict.fromkeys(tokens))


def _candidates(index: InvertedIndex, terms: list[str]) -> np.ndarray:
    """Ordinals of the documents that contain any of the terms, ascending."""
    matches = np.zeros(index.total_docs, dtype=bool)
    for term in terms:
        matches[index.postings(term)[0]] = True
    return np.flatnonzero(matches)


def _to_ranked_list(index: InvertedIndex, query_id: str,
                    candidates: np.ndarray, scores: np.ndarray,
                    k: int) -> RankedList:
    order = np.lexsort((index.doc_id_ranks[candidates], -scores))[:k]
    rows = zip(map(index.doc_ids.__getitem__, candidates[order].tolist()),
               scores[order].tolist(), range(1, len(order) + 1))
    # what RankedEntry._make does, minus a Python-level call per entry
    return RankedList(query_id, tuple(
        map(tuple.__new__, [RankedEntry] * len(order), rows)))


def score_fis(index: InvertedIndex, template: FisTemplate, query_text: str,
              k: int = DEFAULT_CUTOFF, query_id: str = "1") -> RankedList:
    """Rank candidate documents with the template's fuzzy rules.

    Per candidate, the inputs are tf_norm/idf_norm per distinct query term
    (tf 0 for terms the document lacks, idf 0 for terms the corpus lacks)
    plus the overlap fraction.  The template's rules, at their per-query
    weights, fire once on tf as a terms x candidates matrix, idf as a terms
    x 1 column and overlap as one row; each score equals
    ``evaluate(instantiate_fis(template, t), ...)`` bit for bit.
    """
    terms = _distinct_query_terms(query_text)
    rules = template.query_rules(len(terms))
    candidates = _candidates(index, terms)
    features = extract_features(index, terms, candidates)
    block = {"tf": features.tf, "idf": np.array(features.idf)[:, None],
             "overlap": features.overlap}
    config = template.config
    memberships = {}
    for variable in config.inputs:
        memberships.update(_memberships(variable, block[variable.name]))
    strengths = [fire_rule(rule, memberships, config.and_method)
                 for rule in rules]
    scores = _combine(config, rules, strengths, len(candidates))
    return _to_ranked_list(index, query_id, candidates, scores, k)


def score_baseline(index: InvertedIndex, query_text: str,
                   k: int = DEFAULT_CUTOFF, query_id: str = "1") -> RankedList:
    """Rank candidate documents with the summed tf-idf vector formula.

    Per matched term: tf_norm * idf_raw * length_norm, summed over terms in
    query order, then scaled by the overlap (matched fraction of distinct
    query terms, the coordination factor) and the query norm.  length_norm
    is 1/sqrt(token count), 0 for an empty document; the query norm is
    1/sqrt(sum of squared idf_raw), 1 when that sum is 0.  Candidate set
    and tie-breaking match :func:`score_fis`.
    """
    terms = _distinct_query_terms(query_text)
    idf_values = [idf_raw(index, t) for t in terms]
    norm_sq = sum(v * v for v in idf_values)
    query_norm = 1.0 / math.sqrt(norm_sq) if norm_sq > 0 else 1.0
    candidates = _candidates(index, terms)
    features = extract_features(index, terms, candidates)
    counts = index.token_counts[candidates].astype(np.float64)
    length_norm = np.zeros_like(counts)
    np.divide(1.0, np.sqrt(counts), out=length_norm, where=counts > 0)
    total = np.zeros(len(candidates))
    # a term the corpus lacks (idf 0.0) or a document lacks (tf 0.0) adds
    # 0.0, which leaves every sum's bits alone
    for tf_values, idf_value in zip(features.tf, idf_values):
        total += tf_values * idf_value * length_norm
    scores = total * features.overlap * query_norm
    return _to_ranked_list(index, query_id, candidates, scores, k)
