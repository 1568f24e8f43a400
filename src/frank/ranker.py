"""Document scoring: the fuzzy-rule ranker and the tf-idf vector baseline.

The fuzzy ranker is built per query from a :class:`FisTemplate`: a
:class:`FisConfig` over the placeholder inputs ``tf``, ``idf`` and
``overlap``, plus ``overlap_weight_ratio``.  The template's ``tf``/``idf``
rules are cloned once per distinct query term (weighted 1/t for t terms)
and its ``overlap`` rules are weighted a further ``overlap_weight_ratio``
(default 1/6) below that, because overlap evidence is already partly
carried by every per-term rule.  The operators and resolution carry over
from the template's config unchanged.

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
from .fis import FisConfig, LinguisticVariable, default_variable, evaluate
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
        for rule in self.global_rules:  # its weight at t = 1, the largest
            if not 0.0 < rule.weight * self.overlap_weight_ratio <= 1.0:
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


def _rewrite_clause(clause: RuleClause, mapping: dict[str, str]) -> RuleClause:
    new_name = mapping.get(clause.variable)
    if new_name is None:
        return clause
    return RuleClause(new_name, clause.label, clause.negated)


def instantiate_fis(template: FisTemplate, t: int) -> FisConfig:
    """Expand a template for a query with ``t`` distinct terms.

    Inputs become tf_1..tf_t, idf_1..idf_t and overlap.  Per-term rules are
    cloned per term at weight (rule weight) * 1/t; global rules get a
    further * overlap_weight_ratio.
    """
    if t < 1:
        raise QueryError("query has no terms to rank on")
    prototype = template.variable_prototype
    inputs = [prototype.renamed(f"tf_{i}") for i in range(1, t + 1)]
    inputs += [prototype.renamed(f"idf_{i}") for i in range(1, t + 1)]
    inputs.append(prototype.renamed("overlap"))
    term_weight = 1.0 / t
    rules: list[RuleAst] = []
    for i in range(1, t + 1):
        mapping = {"tf": f"tf_{i}", "idf": f"idf_{i}"}
        for rule in template.per_term_rules:
            rules.append(RuleAst(
                tuple(_rewrite_clause(c, mapping) for c in rule.antecedent),
                rule.consequent,
                rule.weight * term_weight,
            ))
    for rule in template.global_rules:
        rules.append(RuleAst(
            rule.antecedent,
            rule.consequent,
            rule.weight * term_weight * template.overlap_weight_ratio,
        ))
    return dataclasses.replace(template.config, inputs=tuple(inputs),
                               rules=tuple(rules))


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
    """Rank candidate documents with the instantiated fuzzy system.

    Per candidate, the inputs are tf_norm/idf_norm per distinct query term
    (tf 0 for terms the document lacks, idf 0 for terms the corpus lacks)
    plus the overlap fraction.  All candidates are scored in one call of
    :func:`evaluate`, one row each.
    """
    terms = _distinct_query_terms(query_text)
    config = instantiate_fis(template, len(terms))
    candidates = _candidates(index, terms)
    features = extract_features(index, terms, candidates)
    inputs: dict[str, float | np.ndarray] = {"overlap": features.overlap}
    for i, (tf_values, idf_value) in enumerate(
            zip(features.tf, features.idf), start=1):
        inputs[f"tf_{i}"] = tf_values
        inputs[f"idf_{i}"] = idf_value
    return _to_ranked_list(index, query_id, candidates,
                           evaluate(config, inputs), k)


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
