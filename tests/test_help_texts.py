"""Every ``--help`` text, pinned: moving code between modules must not change a
flag, a default or a choice list. ``run-all --dump-config`` is pinned in
``test_cli.py``."""

import pytest
from click.testing import CliRunner

from capgraph.cli import main

HELP_TEXTS = {
    "capgraph": """\
Usage: capgraph [OPTIONS] COMMAND [ARGS]...

  Turn video captions plus frame embeddings and detections into pseudo-localized
  scene graphs, and evaluate predictions with Recall@K.

Options:
  --help  Show this message and exit.

Commands:
  align     Align segmented sentences with consecutive frame intervals.
  eval      Score predictions against ground truth with Recall@K.
  ground    Ground parsed triplets to detections across their aligned frames.
  parse     Extract triplets from sentences and map them into the vocabulary.
  plm       Assign negative-action pseudo-labels on unaligned frames.
  run-all   Run the whole pipeline end to end and write all outputs.
  segment   Split each video caption into chronologically ordered sentences.
  stats     Aggregate trace files: token usage, cost per video, histograms.
  validate  Check a dataset root; exit 2 when any invariant is violated.
""",
    "capgraph align": """\
Usage: capgraph align [OPTIONS]

  Align segmented sentences with consecutive frame intervals.

Options:
  --data-root PATH  [required]
  --sentences PATH  [required]
  --out PATH        [required]
  --beta INTEGER    [default: 4]
  --selection TEXT  [default: steepest]
  --seed INTEGER    [default: 0]
  --trace-out PATH
  --help            Show this message and exit.
""",
    "capgraph eval": """\
Usage: capgraph eval [OPTIONS]

  Score predictions against ground truth with Recall@K.

Options:
  --gt PATH                       [required]
  --pred PATH                     [required]
  --k TEXT                        [default: 20,50]
  --regime [with_constraint|no_constraint|both]
                                  [default: both]
  --iou FLOAT                     [default: 0.5]
  --json-out PATH
  --help                          Show this message and exit.
""",
    "capgraph ground": """\
Usage: capgraph ground [OPTIONS]

  Ground parsed triplets to detections across their aligned frames.

Options:
  --data-root PATH  [required]
  --sentences PATH  [required]
  --triplets PATH   [required]
  --out PATH        [required]
  --help            Show this message and exit.
""",
    "capgraph parse": """\
Usage: capgraph parse [OPTIONS]

  Extract triplets from sentences and map them into the vocabulary.

Options:
  --sentences PATH              [required]
  --out PATH                    [required]
  --parser [llm|rule]           [default: llm]
  --mapping [llm|lexicon|none]  [default: lexicon]
  --top-n INTEGER               [default: 500]
  --lexicon-path PATH
  --model TEXT
  --cache-dir PATH
  --offline
  --help                        Show this message and exit.
""",
    "capgraph plm": """\
Usage: capgraph plm [OPTIONS]

  Assign negative-action pseudo-labels on unaligned frames.

Options:
  --data-root PATH                [required]
  --sentences PATH                [required]
  --graphs PATH                   [required]
  --out PATH                      [required]
  --alpha FLOAT                   [default: 15.0]
  --not-looking [start|end|start_and_end]
                                  [default: start_and_end]
  --not-contacting [start|end|start_and_end]
                                  [default: end]
  --help                          Show this message and exit.
""",
    "capgraph run-all": """\
Usage: capgraph run-all [OPTIONS]

  Run the whole pipeline end to end and write all outputs.

Options:
  --data-root PATH
  --out-dir PATH
  --cache-dir PATH
  --config FILE
  --seed INTEGER
  --workers INTEGER
  --offline
  --skip-plm
  --parser [llm|rule]
  --mapping [llm|lexicon|none]
  --tcs-mode [llm|rule_fallback]
  --dump-config                   Print the effective configuration as JSON and
                                  exit.
  --help                          Show this message and exit.
""",
    "capgraph segment": """\
Usage: capgraph segment [OPTIONS]

  Split each video caption into chronologically ordered sentences.

Options:
  --data-root PATH                [required]
  --out PATH                      [required]
  --tcs-mode [llm|rule_fallback]
  --model TEXT
  --cache-dir PATH
  --offline
  --help                          Show this message and exit.
""",
    "capgraph stats": """\
Usage: capgraph stats [OPTIONS] [TRACES]...

  Aggregate trace files: token usage, cost per video, histograms.

Options:
  --help  Show this message and exit.
""",
    "capgraph validate": """\
Usage: capgraph validate [OPTIONS]

  Check a dataset root; exit 2 when any invariant is violated.

Options:
  --data-root PATH  [required]
  --help            Show this message and exit.
""",
}


def test_every_command_is_pinned():
    commands = [f"capgraph {name}" for name in sorted(main.commands)]
    assert sorted(HELP_TEXTS) == ["capgraph"] + commands


@pytest.mark.parametrize("command", sorted(HELP_TEXTS))
def test_help_text_is_unchanged(command):
    args = command.split()[1:] + ["--help"]
    result = CliRunner().invoke(main, args, prog_name="capgraph", terminal_width=80)
    assert result.exit_code == 0, result.output
    assert result.output == HELP_TEXTS[command]
