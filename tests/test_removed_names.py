"""Public names and parameters removed in favour of one path per concept
stay removed, and the README says where their callers go instead."""

import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import frank
import frank.evaluation
import frank.fis
import frank.index
from frank.evaluation import RunFile
from frank.ranker import FisTemplate, RankedEntries, default_template

README = Path(__file__).resolve().parent.parent / "README.md"

# name as the README writes it -> the objects it was once read from
REMOVED = {
    "AggregateSet": (frank, frank.fis),
    "tf_norm": (frank, frank.index),
    "FisTemplate.output": (FisTemplate, default_template()),
    "FisTemplate.per_term_rules": (FisTemplate, default_template()),
    "FisTemplate.global_rules": (FisTemplate, default_template()),
    "RunFile.ranked_doc_ids": (RunFile, RunFile("t", {})),
    "diff_runs": (frank, frank.evaluation),
    "MetricsDiff": (frank, frank.evaluation),
    "RankedEntries.ranks": (RankedEntries, RankedEntries((), np.array([]))),
    "rule_strengths": (frank, frank.fis),
    "QueryFeatures.tf": (frank.index.QueryFeatures, frank.extract_features(
        frank.build_index([frank.Document("d", "aa")]), ["aa"])),
}

# function -> the parameters it no longer takes
REMOVED_PARAMETERS = {
    frank.extract_features: ("candidates",),
}


def removed_names_paragraph() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^Removed public names.*?(?=\n\n)", text,
                      re.MULTILINE | re.DOTALL)
    assert match, "README has no 'Removed public names' paragraph"
    return match.group()


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_documented_and_gone(name):
    assert f"`{name}`" in removed_names_paragraph()
    attribute = name.rpartition(".")[2]
    for owner in REMOVED[name]:
        assert not hasattr(owner, attribute), (owner, attribute)


@pytest.mark.parametrize("function, parameter", [
    (function, parameter)
    for function, parameters in REMOVED_PARAMETERS.items()
    for parameter in parameters])
def test_removed_parameter_is_documented_and_gone(function, parameter):
    assert (f"`{function.__name__}`'s `{parameter}` parameter"
            in removed_names_paragraph())
    assert parameter not in inspect.signature(function).parameters
