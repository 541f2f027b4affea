"""What each entry point imports. Every case runs in a fresh interpreter, since
this test session has long since loaded numpy and the whole pipeline."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import capgraph
from capgraph.cli import main
from capgraph.pipeline import PipelineConfig, run_all

# The modules that only the commands running pipeline stages may load.
HEAVY = ("numpy", "capgraph.align", "capgraph.pipeline")

# Prints the heavy modules loaded after running the code given as argv[1].
PROBE = f"""
import json, sys
exec(sys.argv[1])
print(json.dumps([name for name in {HEAVY!r} if name in sys.modules]))
"""


def _loaded_after(code: str, cwd=None) -> list:
    src = str(Path(capgraph.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", PROBE, code], env=env, cwd=cwd,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def _command(*args) -> str:
    """Code that runs ``capgraph <args>`` and checks that it exits 0."""
    return (
        "from capgraph.cli import main\n"
        "try:\n"
        f"    main({list(map(str, args))!r})\n"
        "except SystemExit as e:\n"
        "    assert e.code == 0, e.code\n"
    )


@pytest.fixture(scope="module")
def run_out(data_root, cassette_dir, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("run")
    run_all(PipelineConfig(data_root=str(data_root), out_dir=str(out),
                           cache_dir=str(cassette_dir), offline=True))
    return out


def test_importing_the_package_loads_no_submodule():
    code = "import capgraph\nassert not [m for m in sys.modules if m.startswith('capgraph.')]"
    assert _loaded_after(code) == []


def test_every_export_is_its_module_attribute():
    code = (
        "import capgraph\n"
        "for name in capgraph.__all__:\n"
        "    value = getattr(capgraph, name)\n"
        "    assert getattr(sys.modules[value.__module__], name) is value, name\n"
        "assert set(capgraph.__all__) <= set(dir(capgraph))\n"
        "namespace = {}\n"
        "exec('from capgraph import *', namespace)\n"
        "assert set(capgraph.__all__) <= set(namespace)\n"
    )
    assert _loaded_after(code) == list(HEAVY)


def test_eval_leaves_the_pipeline_unloaded(data_root, run_out, tmp_path):
    code = _command("eval", "--gt", data_root / "gt" / "kitchen01.ndjson",
                    "--pred", run_out / "scene_graphs.ndjson",
                    "--json-out", tmp_path / "eval.json")
    assert _loaded_after(code) == []
    assert json.loads((tmp_path / "eval.json").read_text())


def test_eval_leaves_requests_unimported(data_root, run_out):
    code = _command("eval", "--gt", data_root / "gt" / "kitchen01.ndjson",
                    "--pred", run_out / "scene_graphs.ndjson")
    assert _loaded_after(code + "assert 'requests' not in sys.modules\n") == []


def test_stats_leaves_the_pipeline_unloaded(run_out):
    assert _loaded_after(_command("stats", run_out / "trace.ndjson")) == []


@pytest.mark.parametrize("command", [""] + sorted(main.commands))
def test_help_leaves_the_pipeline_unloaded(command):
    assert _loaded_after(_command(*command.split(), "--help")) == []


def test_a_pipeline_config_loads_the_pipeline():
    code = "from capgraph import cli\ncli.PipelineConfig()"
    assert _loaded_after(code) == list(HEAVY)
