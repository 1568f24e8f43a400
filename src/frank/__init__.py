"""Fuzzy-rule document ranking toolkit.

A retrieval library whose ranking function is a Mamdani fuzzy inference
system built from human-readable rules, alongside a conventional tf-idf
vector scorer and a TREC-style evaluation harness.
"""

from .errors import (ConfigError, CorpusError, EvalError, FrankError,
                     IndexFormatError, QueryError, RunFormatError, UsageError)
from .evaluation import (MetricsReport, Qrels, RankedEntry, RankedList,
                         RunFile, TopicMetrics, average_precision,
                         evaluate_run, format_diff, format_report, format_run,
                         load_qrels, load_run, parse_qrels, parse_run,
                         precision_at_10, report_jsonl, run_from_ranked)
from .fis import (FisConfig, LinguisticVariable, aggregate, default_variable,
                  defuzzify, evaluate, fire_rule, fuzzify, imply)
from .fisfile import (format_fis_config, format_template, load_fis_config,
                      load_template, parse_fis_config, parse_template)
from .index import (Document, InvertedIndex, QueryFeatures, build_index,
                    extract_features, read_corpus_jsonl, tokenize)
from .membership import MembershipFunction
from .ranker import (FisTemplate, default_template, instantiate_fis,
                     score_baseline, score_fis)
from .rules import ParseError, RuleAst, RuleClause, parse_rule, print_rule

__version__ = "0.1.0"
