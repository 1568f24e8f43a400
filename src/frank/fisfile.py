"""Line-oriented text format for inference systems and ranking templates.

A config file is a sequence of sections::

    [variable NAME]     one per input variable
    universe LO HI
    set LABEL KIND P1 P2 ...
    [output NAME]       exactly one
    [system]            operator selections, optional
    [rules]             one rule per line, in the rule grammar

``KIND`` is one of ``trimf``, ``trapmf``, ``gaussmf``, ``sigmf``.  A line
ends at ``\\n``, ``\\r\\n`` or ``\\r``; blank lines and ``#`` comments are
ignored.  Every fault names a line:

- a bad header, key or value, including a ``resolution`` or
  ``overlap_weight_ratio`` out of range: its own line;
- a variable's universe or sets, a placeholder that differs from ``tf``,
  an output named as an input: the variable's section header;
- a rule's syntax, variables, sets or weight: the rule's line;
- a template input that is not a placeholder: its ``[variable NAME]``
  header; a placeholder that is only missing: the last line;
- no rules, or an output universe too wide for the centroid sums: the
  first ``[rules]`` header, or the last line without one; no ``[output]``:
  the last line.

The parser checks only what it reads itself, line by line, and a
template's input names.  :class:`FisConfig` and :class:`FisTemplate` make
every other check once, as they are built, and name the line that each
parsed rule and variable carries.  So in a file with several faults the
first line-by-line fault wins, then a missing ``[output]``, the input
names, each variable, :class:`FisConfig`'s checks (the output name, no
rules, each rule, the centroid bound) and :class:`FisTemplate`'s (each
prototype, each rule): a rule naming an unknown set comes before a
differing prototype or a rule mixing placeholders.

A template file is a config file over input variables named exactly
``tf``, ``idf`` and ``overlap`` (which must share one prototype definition)
plus an optional ``[system]`` key ``overlap_weight_ratio``.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

from .errors import ConfigError, read_number, read_text, split_lines
from .fis import (MAX_RESOLUTION, OPERATORS, FisConfig, LinguisticVariable,
                  _check_resolution)
from .membership import MembershipFunction
from .ranker import (_PLACEHOLDERS, FisTemplate, _check_placeholder_names,
                     _check_ratio)
from .rules import RuleAst, parse_rule, print_rule

_KIND_BY_KEYWORD = {
    "trimf": "triangular",
    "trapmf": "trapezoidal",
    "gaussmf": "gaussian",
    "sigmf": "sigmoid",
}
_KEYWORD_BY_KIND = {v: k for k, v in _KIND_BY_KEYWORD.items()}


@contextmanager
def _at_line(number: int | None):
    """Name ``number`` in a :class:`ConfigError` raised in the block that
    names no line of its own."""
    try:
        yield
    except ConfigError as exc:
        if exc.line is not None:
            raise
        raise ConfigError(str(exc), line=number) from None


class _VariableDraft:
    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        self.universe: tuple[float, float] | None = None
        self.sets: dict[str, MembershipFunction] = {}

    def build(self) -> LinguisticVariable:
        if self.universe is None:
            raise ConfigError(
                f"variable {self.name!r} has no universe", line=self.line
            )
        with _at_line(self.line):
            return LinguisticVariable(self.name, self.universe, self.sets,
                                      self.line)


def _parse_floats(values: list[str], line: int) -> list[float]:
    try:
        return [read_number(v, float) for v in values]
    except ValueError as exc:
        raise ConfigError(str(exc), line=line)


def _parse(text: str, template: bool) -> FisConfig | FisTemplate:
    """The config, or with ``template`` the template, a file defines.

    With ``template``, the ratio key is accepted and the input names are
    checked before the config is built, so a missing placeholder is
    reported as such rather than as a rule naming an unknown variable.
    """
    inputs: list[_VariableDraft] = []
    output: _VariableDraft | None = None
    system: dict[str, object] = {}
    template_fields: dict[str, float] = {}
    rules: list[RuleAst] = []
    current: _VariableDraft | None = None
    section: str | None = None
    lines = split_lines(text)
    # a fault of the whole file names the first [rules] header, else the
    # last line
    rules_line = None

    for number, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError("unterminated section header", line=number)
            header = stripped[1:-1].split()
            if header and header[0] == "variable" and len(header) == 2:
                current = _VariableDraft(header[1], number)
                if any(v.name == header[1] for v in inputs):
                    raise ConfigError(
                        f"duplicate variable {header[1]!r}", line=number
                    )
                inputs.append(current)
                section = "variable"
            elif header and header[0] == "output" and len(header) == 2:
                if output is not None:
                    raise ConfigError("second [output] section", line=number)
                current = output = _VariableDraft(header[1], number)
                section = "variable"
            elif header == ["system"]:
                section = "system"
                current = None
            elif header == ["rules"]:
                section = "rules"
                current = None
                rules_line = rules_line or number
            else:
                raise ConfigError(
                    f"unknown section {stripped!r}", line=number
                )
            continue

        if section == "rules":
            rules.append(parse_rule(raw, line=number))
            continue
        if section is None:
            raise ConfigError(
                f"content before any section: {stripped!r}", line=number
            )

        fields = stripped.split()
        key, values = fields[0], fields[1:]
        if section == "variable":
            assert current is not None
            if key == "universe":
                if len(values) != 2:
                    raise ConfigError("universe takes exactly 2 numbers",
                                      line=number)
                lo, hi = _parse_floats(values, number)
                current.universe = (lo, hi)
            elif key == "set":
                if len(values) < 2:
                    raise ConfigError("set takes a label, a kind, and "
                                      "parameters", line=number)
                label, keyword = values[0], values[1]
                kind = _KIND_BY_KEYWORD.get(keyword)
                if kind is None:
                    raise ConfigError(
                        f"unknown membership function {keyword!r}", line=number
                    )
                if label in current.sets:
                    raise ConfigError(
                        f"duplicate set {label!r} in variable "
                        f"{current.name!r}", line=number
                    )
                params = _parse_floats(values[2:], number)
                with _at_line(number):
                    current.sets[label] = MembershipFunction(kind, tuple(params))
            else:
                raise ConfigError(f"unknown key {key!r}", line=number)
        elif section == "system":
            if key in OPERATORS:
                field, choices = OPERATORS[key]
                if len(values) != 1 or values[0] not in choices:
                    raise ConfigError(
                        f"{key} must be one of {', '.join(choices)}",
                        line=number
                    )
                system[field] = values[0]
            elif key == "resolution":
                if (len(values) != 1 or not values[0].isascii()
                        or not values[0].isdecimal()):
                    raise ConfigError("resolution takes a positive integer",
                                      line=number)
                try:
                    system[key] = int(values[0])
                except ValueError:  # more digits than int() converts
                    raise ConfigError(
                        f"resolution must be <= {MAX_RESOLUTION}", line=number
                    ) from None
                with _at_line(number):
                    _check_resolution(system[key])
            elif key == "overlap_weight_ratio" and template:
                if len(values) != 1:
                    raise ConfigError("overlap_weight_ratio takes one number",
                                      line=number)
                (template_fields[key],) = _parse_floats(values, number)
                with _at_line(number):
                    _check_ratio(template_fields[key])
            else:
                raise ConfigError(f"unknown key {key!r}", line=number)

    last_line = len(lines) or None  # an empty file has no line to name
    if output is None:
        raise ConfigError("missing [output] section", line=last_line)
    if template:
        # a stray input names its header; a placeholder only missing, the
        # last line
        with _at_line(next((draft.line for draft in inputs
                            if draft.name not in _PLACEHOLDERS), last_line)):
            _check_placeholder_names(draft.name for draft in inputs)
    with _at_line(rules_line or last_line):
        config = FisConfig(inputs=tuple(draft.build() for draft in inputs),
                           output=output.build(), rules=tuple(rules),
                           **system)
        return FisTemplate(config, **template_fields) if template else config


def parse_fis_config(text: str) -> FisConfig:
    """Parse a full inference-system definition from config text.

    Operators left out of ``[system]`` take the :class:`FisConfig`
    defaults.
    """
    return _parse(text, template=False)


def parse_template(text: str) -> FisTemplate:
    """Parse a ranking template from config text.

    The text is a config over ``tf``, ``idf`` and ``overlap``; ``[system]``
    may also set ``overlap_weight_ratio``.  :class:`FisTemplate` checks the
    rest of what makes a valid template.
    """
    return _parse(text, template=True)


def load_fis_config(path: str | Path) -> FisConfig:
    return parse_fis_config(read_text(path, ConfigError))


def load_template(path: str | Path) -> FisTemplate:
    return parse_template(read_text(path, ConfigError))


def _format_variable(header: str, variable: LinguisticVariable) -> list[str]:
    lo, hi = variable.universe
    lines = [f"[{header} {variable.name}]", f"universe {lo!r} {hi!r}"]
    for label, mf in variable.sets.items():
        params = " ".join(repr(p) for p in mf.params)
        lines.append(f"set {label} {_KEYWORD_BY_KIND[mf.kind]} {params}")
    return lines


def _format(config: FisConfig, system: tuple[str, ...] = ()) -> str:
    """Config text, with ``system`` lines added at the end of [system]."""
    lines: list[str] = []
    for variable in config.inputs:
        lines.extend(_format_variable("variable", variable))
    lines.extend(_format_variable("output", config.output))
    lines += [
        "[system]",
        *(f"{family} {getattr(config, field)}"
          for family, (field, _) in OPERATORS.items()),
        f"resolution {config.resolution}",
        *system,
        "[rules]",
    ]
    lines.extend(print_rule(rule) for rule in config.rules)
    return "\n".join(lines) + "\n"


def format_fis_config(config: FisConfig) -> str:
    """Canonical config text; ``parse_fis_config`` round-trips it."""
    return _format(config)


def format_template(template: FisTemplate) -> str:
    """Canonical template text; ``parse_template`` round-trips it."""
    return _format(template.config, (
        f"overlap_weight_ratio {template.overlap_weight_ratio!r}",))
