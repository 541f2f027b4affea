"""One gate for a pipeline config file: ``run-all --config`` either takes the
file, with every value inside its rule, or stops with an error naming it.

The property draws config files over the real keys that ``--dump-config``
prints, with values of every JSON kind: wrong types, null, NaN, infinities,
negatives and integers past 2**63, next to valid values.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from capgraph.align import SELECTION_MODES
from capgraph.cli import main
from capgraph.motion import ENDPOINT_STRATEGIES
from capgraph.parse import MAPPING_MODES, PARSER_MODES
from capgraph.segment import SEGMENT_MODES


def _number(v, kinds=(int, float)) -> bool:
    return isinstance(v, kinds) and not isinstance(v, bool)


def _within(low, high=math.inf, kinds=(int, float)):
    """Finite numbers of ``kinds`` in [low, high]."""
    return lambda v: _number(v, kinds) and low <= v <= high and v < math.inf


def _is(kind):
    return lambda v: isinstance(v, kind)


def _one_of(names):
    return lambda v: isinstance(v, str) and v in names


# Every key of the file, with the rule its value keeps once the file is taken.
RULES = {
    "data_root": _is(str),
    "out_dir": _is(str),
    "cache_dir": _is((str, type(None))),
    "seed": _within(0, kinds=int),
    "workers": _within(1, kinds=int),
    "offline": _is(bool),
    "skip_negatives": _is(bool),
    "ingest.confidence_floor": _within(0, 1),
    "segmentation.model_name": _is(str),
    "segmentation.temperature": _within(0, sys.float_info.max),
    "segmentation.endpoint": _is(str),
    "segmentation.max_retries": _within(0, kinds=int),
    "segmentation.mode": _one_of(SEGMENT_MODES),
    "segmentation.include_coreference": _is(bool),
    "segmentation.input_price_per_million": _within(0, sys.float_info.max),
    "segmentation.output_price_per_million": _within(0, sys.float_info.max),
    "alignment.beta": _within(1, kinds=int),
    "alignment.selection": _one_of(SELECTION_MODES),
    "alignment.gap_tau": _number,  # in (0, 1) under fixed_gap: checked below
    "parsing.parser": _one_of(PARSER_MODES),
    "parsing.mapping": _one_of(MAPPING_MODES),
    "parsing.lexicon_path": _is((str, type(None))),
    "parsing.top_n_open_classes": lambda v: v is None or _within(0, kinds=int)(v),
    "motion.alpha_percent": lambda v: _within(0, 100)(v) and v > 0,
    "motion.strategy_not_looking": _one_of(ENDPOINT_STRATEGIES),
    "motion.strategy_not_contacting": _one_of(ENDPOINT_STRATEGIES),
}
SECTIONS = sorted({key.split(".")[0] for key in RULES if "." in key})

_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, 2, 3, -1, -3, 100, 101, 2**63, 2**64 + 1, -(2**63) - 1, 10**30,
                     10**400]),
    st.sampled_from([0.0, -0.0, 0.2, 0.5, 1.0, 1.5, -1.0, 1e308, math.nan, math.inf, -math.inf]),
    st.sampled_from(["", "out", "llm", "rule", "rule_fallback", "lexicon", "none",
                     "steepest_decline", "fixed_gap", "start_and_end", "end"]),
    st.sampled_from([[], [1], {}, {"beta": 2}]),
)


def _leaves(d: dict, prefix: str = ""):
    for key, value in d.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


@given(entries=st.lists(st.tuples(st.sampled_from(sorted(RULES) + SECTIONS), _VALUES),
                        max_size=5))
@settings(max_examples=200, deadline=None)
def test_dump_config_takes_a_file_inside_the_rules_or_names_it(entries):
    data: dict = {}
    for key, value in entries:
        section, _, name = key.rpartition(".")
        if not section:
            data[name] = value
        elif isinstance(data.setdefault(section, {}), dict):
            data[section][name] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(data))
        result = CliRunner().invoke(main, ["run-all", "--config", str(path), "--dump-config"])
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        result.output, result.exception)
    assert "Traceback" not in result.output
    if result.exit_code != 0:
        assert result.exit_code == 1
        assert result.output.startswith(f"error: {path}:0: bad pipeline config: "), result.output
        return
    dumped = dict(_leaves(json.loads(result.output)))
    assert sorted(dumped) == sorted(RULES)
    assert [key for key, rule in RULES.items() if not rule(dumped[key])] == [], dumped
    if dumped["alignment.selection"] == "fixed_gap":
        assert 0 < dumped["alignment.gap_tau"] < 1
