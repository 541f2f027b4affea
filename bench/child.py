"""One benchmark pass in its own process.

    python3 bench/child.py '<json job>'

The job names a mode (``run_all``, ``eval``, ``traced_run_all`` or
``traced_eval``), the dataset and output directories, and the monotonic time
at which the parent spawned this process. The last line of standard output
is a JSON object with ``setup_s`` (spawn until just before the entry point is
called), ``wall_s`` (the entry point call) and ``peak_rss_mb``. Traced modes
also write their spans and counters to ``job["spans_out"]``.
"""

import json
import resource
import sys
import time


def pipeline_config(workload: str, data: str, out: str):
    from capgraph import cli

    config = cli.PipelineConfig(
        data_root=data, out_dir=out, cache_dir=f"{data}/cassettes", workers=1, offline=True
    )
    if workload == "chat-replay":
        config.segmentation.mode = "llm"
        config.parsing.parser = "llm"
        config.parsing.mapping = "llm"
    else:
        config.segmentation.mode = "rule_fallback"
        config.parsing.parser = "rule"
        config.parsing.mapping = "lexicon"
    return config


def main() -> None:
    job = json.loads(sys.argv[1])
    mode, data, out = job["mode"], job["data"], job["out"]
    from capgraph import cli

    if mode.endswith("eval"):
        argv = ["eval", "--gt", f"{data}/gt.ndjson", "--pred", f"{data}/pred.ndjson",
                "--json-out", f"{out}/eval.json"]
    else:
        config = pipeline_config(job["workload"], data, out)

    if mode.startswith("traced"):
        import traced

        tracer = traced.Tracer()
        setup = time.monotonic() - job["spawned"]
        started = time.perf_counter()
        if mode == "traced_eval":
            traced.run_eval(f"{data}/gt.ndjson", f"{data}/pred.ndjson", f"{out}/eval.json", tracer)
        else:
            traced.run_pipeline(config, tracer)
        wall = time.perf_counter() - started
        with open(job["spans_out"], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    else:
        setup = time.monotonic() - job["spawned"]
        started = time.perf_counter()
        if mode == "eval":
            cli.main(argv, standalone_mode=False)
        else:
            cli.run_all(config)
        wall = time.perf_counter() - started
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"setup_s": setup, "wall_s": wall, "peak_rss_mb": peak_mib}))


if __name__ == "__main__":
    main()
