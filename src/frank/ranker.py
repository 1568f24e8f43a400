"""Document scoring: the fuzzy-rule ranker and the tf-idf vector baseline.

The fuzzy ranker is built per query from a :class:`FisTemplate`: the
template's ``tf``/``idf`` placeholder rules are cloned once per distinct
query term (weighted 1/t for t terms) and its ``overlap`` rules are weighted
a further ``overlap_weight_ratio`` (default 1/6) below that, because overlap
evidence is already partly carried by every per-term rule.

Both scorers share candidate generation (the union of the query terms'
postings: documents matching no term are never scored) and the ranking
order: descending score, ties broken by ascending doc_id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, QueryError
from .fis import FisConfig, LinguisticVariable, default_variable, evaluate
from .index import InvertedIndex, extract_features, idf_raw, tokenize
from .rules import RuleAst, RuleClause, parse_rule

DEFAULT_OVERLAP_WEIGHT_RATIO = 1.0 / 6.0
DEFAULT_CUTOFF = 1000


@dataclass(frozen=True)
class FisTemplate:
    """Per-query blueprint for the fuzzy ranker.

    ``per_term_rules`` may reference only the placeholder variables ``tf``
    and ``idf``; ``global_rules`` only ``overlap``.  Every instantiated
    input variable is a copy of ``variable_prototype``.
    """

    per_term_rules: tuple[RuleAst, ...]
    global_rules: tuple[RuleAst, ...]
    variable_prototype: LinguisticVariable
    output: LinguisticVariable
    and_method: str = "prod"
    implication: str = "prod"
    aggregation: str = "sum"
    defuzzification: str = "centroid"
    resolution: int = 1001
    overlap_weight_ratio: float = DEFAULT_OVERLAP_WEIGHT_RATIO

    def __post_init__(self):
        for rule in self.per_term_rules:
            mentioned = {clause.variable for clause in rule.antecedent}
            if not mentioned <= {"tf", "idf"}:
                raise ConfigError(
                    f"per-term rule may reference only tf/idf, got "
                    f"{sorted(mentioned)}"
                )
        for rule in self.global_rules:
            mentioned = {clause.variable for clause in rule.antecedent}
            if mentioned != {"overlap"}:
                raise ConfigError(
                    f"global rule may reference only overlap, got "
                    f"{sorted(mentioned)}"
                )
        if not self.per_term_rules and not self.global_rules:
            raise ConfigError("template has no rules")
        if self.overlap_weight_ratio <= 0:
            raise ConfigError("overlap_weight_ratio must be positive")


def default_template(resolution: int = 1001) -> FisTemplate:
    """The bundled relevance template.

    Per term: reward high tf combined with high idf, penalize the opposite.
    Globally: reward high overlap, penalize low overlap.
    """
    per_term = (
        parse_rule("if (tf is high) and (idf is high) -> (relevance is high)"),
        parse_rule(
            "if (tf is not high) and (idf is not high) "
            "-> (relevance is not high)"
        ),
    )
    global_rules = (
        parse_rule("if (overlap is high) -> (relevance is high)"),
        parse_rule("if (overlap is not high) -> (relevance is not high)"),
    )
    return FisTemplate(
        per_term_rules=per_term,
        global_rules=global_rules,
        variable_prototype=default_variable("tf"),
        output=default_variable("relevance"),
        resolution=resolution,
    )


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
    return FisConfig(
        inputs=tuple(inputs),
        output=template.output,
        rules=tuple(rules),
        and_method=template.and_method,
        implication=template.implication,
        aggregation=template.aggregation,
        defuzzification=template.defuzzification,
        resolution=template.resolution,
    )


@dataclass(frozen=True, slots=True)
class RankedEntry:
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


@dataclass(frozen=True)
class BaselineParams:
    """Factor definitions for the vector-formula scorer.

    The conventional choices, isolated here so they can be varied: a fixed
    field boost, document length normalization 1/sqrt(token count), query
    normalization 1/sqrt(sum of squared idf), and the matched-fraction
    coordination factor.
    """

    boost: float = 1.0

    def length_norm(self, token_counts: np.ndarray) -> np.ndarray:
        """1/sqrt(token count) per document; 0 for an empty document."""
        counts = np.asarray(token_counts, dtype=np.float64)
        norms = np.zeros_like(counts)
        np.divide(1.0, np.sqrt(counts), out=norms, where=counts > 0)
        return norms

    def query_norm(self, idf_values: list[float]) -> float:
        norm_sq = sum(v * v for v in idf_values)
        return 1.0 / math.sqrt(norm_sq) if norm_sq > 0 else 1.0

    def coord(self, matched_count: np.ndarray,
              distinct_terms: int) -> np.ndarray:
        return matched_count / distinct_terms


def _distinct_query_terms(index: InvertedIndex, query_text: str) -> list[str]:
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
    doc_ids = index.doc_ids
    entries = tuple(
        RankedEntry(doc_ids[ordinal], score, rank)
        for rank, (ordinal, score) in enumerate(
            zip(candidates[order].tolist(), scores[order].tolist()), start=1)
    )
    return RankedList(query_id, entries)


def score_fis(index: InvertedIndex, template: FisTemplate, query_text: str,
              k: int = DEFAULT_CUTOFF, query_id: str = "1") -> RankedList:
    """Rank candidate documents with the instantiated fuzzy system.

    Per candidate, the inputs are tf_norm/idf_norm per distinct query term
    (tf 0 for terms the document lacks, idf 0 for terms the corpus lacks)
    plus the overlap fraction.  All candidates are scored in one call of
    :func:`evaluate`, one row each.
    """
    terms = _distinct_query_terms(index, query_text)
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
                   k: int = DEFAULT_CUTOFF, query_id: str = "1",
                   params: BaselineParams = BaselineParams()) -> RankedList:
    """Rank candidate documents with the summed tf-idf vector formula.

    Per matched term: tf_norm * idf_raw * boost * length_norm, summed over
    terms in query order, then scaled by the overlap coordination factor and
    the query norm.  Candidate set and tie-breaking match :func:`score_fis`.
    """
    terms = _distinct_query_terms(index, query_text)
    in_corpus = [t for t in terms if index.document_frequency(t) > 0]
    query_norm = params.query_norm([idf_raw(index, t) for t in in_corpus])
    candidates = _candidates(index, terms)
    features = extract_features(index, terms, candidates)
    length_norm = params.length_norm(index.token_counts[candidates])
    total = np.zeros(len(candidates))
    for term, tf_values in zip(terms, features.tf):
        # an unmatched term adds 0.0, which leaves every sum's bits alone
        total += tf_values * idf_raw(index, term) * params.boost * length_norm
    scores = (total * params.coord(features.matched_count, len(terms))
              * query_norm)
    return _to_ranked_list(index, query_id, candidates, scores, k)
