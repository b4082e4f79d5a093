"""Command-line experiment runner.

    xbarlstm train --config exp.ini --out runs/a
    xbarlstm sweep --config exp.ini --threads 4
    xbarlstm noise-sweep --config exp.ini
    xbarlstm cost [--config hw.ini] --out runs/cost

Every run writes manifest.json (re-runnable as --config), report.json and
metrics.csv into the output directory.  The config file's [experiment]
section may set command/task/out/seed/threads; the subcommand and the
command-line flags take precedence.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import replace

from .experiment import ConfigError, ExperimentConfig, exit_code, load_config, run_experiment


def _add_common(sub):
    sub.add_argument("--config", type=str, default=None, help="INI or JSON config file")
    sub.add_argument("--out", type=str, default=None, help="output directory")
    sub.add_argument("--seed", type=int, default=None, help="root seed (u64)")
    sub.add_argument("--threads", type=int, default=None,
                     help="concurrent sweep cells (default 1)")


def _resolve(args) -> ExperimentConfig:
    if args.config is None:
        if args.command != "cost":
            raise ConfigError(f"{args.command} requires --config")
        # cost runs on defaults without a config file
        flags = {k: v for k, v in (("seed", args.seed), ("threads", args.threads))
                 if v is not None}
        out = args.out if args.out is not None else "runs/cost"
        return ExperimentConfig(command="cost", out_dir=out, **flags)
    cfg = load_config(args.config, out_dir=args.out, seed=args.seed, threads=args.threads)
    # the subcommand on the command line overrides the config's command;
    # replace() validates the result again
    return replace(cfg, command=args.command)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="xbarlstm",
                                     description="Crossbar LSTM experiment harness")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, desc in [("train", "train and evaluate one configuration"),
                       ("sweep", "bit-width grid sweep"),
                       ("noise-sweep", "weight/ADC noise sweep"),
                       ("cost", "hardware cost report")]:
        _add_common(subs.add_parser(name, help=desc))
    args = parser.parse_args(argv)

    def execute():
        cfg = _resolve(args)
        report = run_experiment(cfg)
        summary = {k: report[k] for k in ("task", "metric_name") if k in report}
        print(json.dumps({"out": cfg.out_dir, **summary}))

    return exit_code(execute)


if __name__ == "__main__":
    raise SystemExit(main())
