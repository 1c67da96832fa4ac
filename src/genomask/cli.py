"""Command-line front end.

Subcommands: gen-panel, mask, rate, bound, lp, window, robustness,
hardness, experiment.  Exit codes: 0 ok, 2 input error, 3 capacity error,
4 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import warnings

import numpy as np

from . import baselines, bounds, distributions, experiments, hardness, mechanism
from .distributions import HmmModel, SequenceModel, load_model_config, load_panel
from .errors import CapacityError, GenomaskError, InputError, NumericalError
from .masking import Ordering, transcript_to_json_lines


def _parse_numbers(text: str, what: str, kind=int) -> list:
    """Non-empty comma-separated list of ``kind``; InputError on anything
    else."""
    try:
        vals = [kind(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise InputError(f"bad {what} {text!r}") from exc
    if not vals:
        raise InputError(f"empty {what}")
    return vals


def _parse_positions(text: str, n: int) -> tuple[int, ...]:
    """Comma-separated 1-based indices -> sorted 0-based tuple, each once."""
    vals = _parse_numbers(text, "position list")
    if any(v < 1 or v > n for v in vals):
        raise InputError(f"positions in {text!r} outside 1..{n}")
    return tuple(sorted({v - 1 for v in vals}))


def _parse_order(text: str, n: int) -> Ordering:
    vals = _parse_numbers(text, "--order")
    if sorted(vals) != list(range(1, n + 1)):
        raise InputError("--order must be a comma-separated permutation of 1..n")
    return Ordering(tuple(v - 1 for v in vals))


def _check_runs(runs: int) -> None:
    if runs < 0:
        raise InputError(f"--runs must be >= 0 (0 = exact), got {runs}")


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise InputError(f"--seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def _load_model(args) -> SequenceModel:
    if getattr(args, "model", None):
        return load_model_config(args.model)
    if not getattr(args, "panel", None):
        raise InputError("need --panel (with --epsilon/--theta) or --model")
    panel = load_panel(args.panel)
    return HmmModel(panel, args.epsilon, args.theta)


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as is; an unwritable path is an input
    error."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        _write(args.out, text + ("" if text.endswith("\n") else "\n"))
    else:
        print(text)


# -- subcommand handlers -----------------------------------------------------


def cmd_gen_panel(args) -> int:
    if args.m < 1 or args.n < 1:
        raise InputError("panel dimensions must be positive")
    if not 2 <= args.alphabet <= 10:
        raise InputError("--alphabet must be in 2..10 (one digit per symbol), "
                         f"got {args.alphabet}")
    if args.m * args.n * 8 > distributions.BELIEF_BUDGET_BYTES:
        raise CapacityError(f"a {args.m} x {args.n} panel exceeds the memory budget")
    panel = _rng(args.seed).integers(args.alphabet, size=(args.m, args.n))
    _emit(args, "\n".join(map(distributions.symbols_text, panel.tolist())))
    return 0


def cmd_mask(args) -> int:
    model = _load_model(args)
    K = _parse_positions(args.k, model.n)
    rng = _rng(args.seed)
    if args.sample:
        x = model.sample(rng)
    elif args.x:
        x = distributions.parse_symbols(args.x, "--x")
    else:
        raise InputError("provide --x SEQUENCE or --sample")
    ordering = _parse_order(args.order, model.n) if args.order else None
    masked, transcript = mechanism.mask_sequence(model, x, K, ordering,
                                                  rng=rng)
    # the transcript first: an unwritable path exits 2 with nothing printed
    if args.transcript:
        _write(args.transcript, transcript_to_json_lines(transcript) + "\n")
    _emit(args, masked.text())
    return 0


def cmd_rate(args) -> int:
    model = _load_model(args)
    K = _parse_positions(args.k, model.n)
    ordering = _parse_order(args.order, model.n) if args.order else None
    _check_runs(args.runs)
    rng = _rng(args.seed)
    if args.runs > 0:
        est, err = mechanism.achievable_rate_mc(model, K, ordering,
                                                runs=args.runs, rng=rng)
        payload = {"rate": est, "stderr": err, "runs": args.runs}
    else:
        est = mechanism.achievable_rate_exact(model, K, ordering)
        payload = {"rate": est, "stderr": 0.0, "runs": 0}
    _emit(args, json.dumps(payload) if args.json else f"{est:.6f}")
    return 0


def cmd_bound(args) -> int:
    model = _load_model(args)
    K = _parse_positions(args.k, model.n)
    value = bounds.upper_bound_rate(model, K)
    _emit(args, json.dumps({"bound": value}) if args.json else f"{value:.6f}")
    return 0


def cmd_lp(args) -> int:
    model = _load_model(args)
    K = _parse_positions(args.k, model.n)
    sol = bounds.lp_optimal_rate(model, K)
    if sol.status == "capacity":
        raise CapacityError("the LP exceeds LP_VAR_BUDGET variables")
    if sol.status != "optimal":
        raise NumericalError(f"the LP solve ended {sol.status}")
    _emit(args, sol.to_json() if args.json
          else f"{sol.optimal_rate:.6f} ({sol.status})")
    return 0


def cmd_window(args) -> int:
    model = _load_model(args)
    K = _parse_positions(args.k, model.n)
    omegas = _parse_numbers(args.omega, "--omega")
    _check_runs(args.runs)
    rng = _rng(args.seed)
    if args.runs > 0:
        est, err = baselines.window_leakage_sweep(model, K, omegas,
                                                  args.runs, rng)
    else:
        est = np.array([baselines.window_leakage_exact(model, K, w)
                        for w in omegas])
        err = np.zeros(len(omegas))
    rows = [{"omega": w, "leakage": float(l), "stderr": float(s)}
            for w, l, s in zip(omegas, est, err)]
    if args.json:
        _emit(args, "\n".join(json.dumps(r) for r in rows))
    else:
        _emit(args, "\n".join(f"{r['omega']}\t{r['leakage']:.6f}"
                              f"\t{r['stderr']:.6f}" for r in rows))
    return 0


def cmd_robustness(args) -> int:
    p_model = load_model_config(args.model)
    q_model = load_model_config(args.q_model)
    K = _parse_positions(args.k, p_model.n)
    pair = baselines.MismatchPair(p_model, q_model)
    res = baselines.robustness_experiment(pair, K)
    payload = {"leakage_bits": res.leakage_bits,
               "kl_bound_bits": res.kl_bound_bits}
    _emit(args, json.dumps(payload))
    return 0


def cmd_hardness(args) -> int:
    inst = hardness.HittingSetInstance.from_json(args.instance)
    report = hardness.reduction_report(inst)
    _emit(args, json.dumps(report))
    return 0


def cmd_experiment(args) -> int:
    panel = load_panel(args.panel) if args.panel else None
    # a panel fixes the grid's shape unless --m/--n say otherwise
    m, n = panel.shape if panel is not None else (100, 100)
    m = m if args.m is None else args.m
    n = n if args.n is None else args.n
    config = experiments.ExperimentConfig(
        experiment=args.name,
        n=n, m=m,
        k=_parse_positions(args.k, n),
        epsilons=tuple(_parse_numbers(args.epsilon, "--epsilon", float)),
        thetas=tuple(_parse_numbers(args.theta, "--theta", float)),
        omegas=(None if args.omega is None
                else tuple(_parse_numbers(args.omega, "--omega"))),
        runs=args.runs, seed=args.seed, panel=panel,
    )
    rows = experiments.run_experiment(config)
    if args.json:
        text = "\n".join(json.dumps(r) for r in rows)
        _emit(args, text)
        return 0
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=experiments.CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    if args.out:
        _write(args.out, buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    return 0


# -- parser ------------------------------------------------------------------


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--panel", help="panel file (one haplotype per line)")
    p.add_argument("--epsilon", type=float, default=0.1,
                   help="crossover probability (with --panel)")
    p.add_argument("--theta", type=float, default=0.01,
                   help="copy-error probability (with --panel)")
    p.add_argument("--model", help="JSON model config (overrides --panel)")
    p.add_argument("--k", default="1",
                   help="sensitive positions, comma-separated, 1-based")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.add_argument("--out", help="write output to this file")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise `InputError` (exit 2, one line); so do its
    subparsers', which argparse makes of the same class."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="genomask",
        description="Erasure masking of sensitive sequence positions with "
                    "exact privacy verification.",
        epilog="CSV columns for `experiment`: " + ",".join(experiments.CSV_COLUMNS),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-panel", help="write a uniform random panel")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alphabet", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen_panel)

    p = sub.add_parser("mask", help="mask one sequence")
    _add_model_args(p)
    p.add_argument("--x", help="input sequence, e.g. 010110")
    p.add_argument("--sample", action="store_true",
                   help="draw the input from the model")
    p.add_argument("--order", help="processing order, 1-based permutation")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--transcript", help="write per-position JSON lines here")
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("rate", help="mechanism rate (exact or Monte-Carlo)")
    _add_model_args(p)
    p.add_argument("--order", help="processing order, 1-based permutation")
    p.add_argument("--runs", type=int, default=0,
                   help="Monte-Carlo runs; 0 = exact enumeration.  A run "
                        "scores (1/n) sum_i sum_v min_u p(x_i = v | u, "
                        "prefix), its release probabilities given its "
                        "produced prefixes: by the tower property the mean "
                        "of the released fraction, and the stderr is that "
                        "of these per-run minima sums")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("bound", help="converse upper bound on the rate")
    _add_model_args(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("lp", help="LP-optimal rate on a tiny instance")
    _add_model_args(p)
    p.set_defaults(func=cmd_lp)

    p = sub.add_parser("window", help="window-baseline leakage")
    _add_model_args(p)
    p.add_argument("--omega", default="0,5,10,20,30",
                   help="window sizes, comma-separated; a window of size w "
                   "erases each position within w - 1 of a --k position")
    p.add_argument("--runs", type=int, default=0,
                   help="samples for the estimator, which takes one --k "
                   "position and a Markov or HMM model; 0 = exact "
                   "enumeration, for any --k")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_window)

    p = sub.add_parser("robustness", help="mismatch leakage vs divergence bound")
    p.add_argument("--model", required=True, help="true model config")
    p.add_argument("--q-model", required=True, dest="q_model",
                   help="model the mechanism believes")
    p.add_argument("--k", default="1")
    p.add_argument("--out")
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("hardness", help="ordering search vs hitting set")
    p.add_argument("--instance", required=True,
                   help='JSON file or literal: {"m": 3, "sets": [[1,2],[2,3]]}')
    p.add_argument("--out")
    p.set_defaults(func=cmd_hardness)

    p = sub.add_parser("experiment", help="run a named sweep, emit CSV")
    p.add_argument("--name", required=True,
                   choices=sorted(experiments.RUNNERS))
    p.add_argument("--n", type=int,
                   help="sequence length (default: the panel's, else 100)")
    p.add_argument("--m", type=int,
                   help="panel rows (default: the panel's, else 100)")
    p.add_argument("--k", default="1")
    p.add_argument("--epsilon", default=",".join(map(str, experiments.DEFAULT_EPSILONS)))
    p.add_argument("--theta", default=",".join(map(str, experiments.DEFAULT_THETAS)))
    p.add_argument("--omega", help="default: 0,5,..,50 up to --n")
    p.add_argument("--runs", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--panel", help="reuse an existing panel file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    with warnings.catch_warnings():     # a warning is one line, as errors are
        warnings.showwarning = lambda message, *_: print(
            f"warning: {message}", file=sys.stderr)
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except GenomaskError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
