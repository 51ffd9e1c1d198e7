"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 input error (also an output
file that cannot be written, or a closed stdout pipe), 3 check failure
(verification suite), 4 numeric range abort (also a scale solver
invariant failure).  Set GEOSEQ_LOG_LEVEL to error/warn/info/debug to
control logging.

Each command imports what it runs, inside its handler: ``fib`` loads only
:mod:`geoseq.fibonacci`, and ``paranorm`` neither the Fibonacci transform
(for the identity view) nor the membership verdicts.
"""

from __future__ import annotations

import argparse
import os
import sys

# logging's numeric levels; ``logging`` itself loads only when it is needed
_LOG_LEVELS = {"error": 40, "warn": 30, "info": 20, "debug": 10}

USAGE_ERROR = 1
INPUT_ERROR = 2
CHECK_FAILURE = 3
RANGE_ABORT = 4


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit code 2 for usage problems; the contract
    # here reserves 2 for input errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _log_level() -> str:
    return os.environ.get("GEOSEQ_LOG_LEVEL", "warn").lower()


def _logger():
    """The ``geoseq.cli`` logger, with logging loaded and configured."""
    import logging

    logging.basicConfig(level=_LOG_LEVELS.get(_log_level(), logging.WARNING))
    return logging.getLogger("geoseq.cli")


def _setup_logging() -> None:
    level = _log_level()
    if level not in _LOG_LEVELS:
        _logger().warning("unknown GEOSEQ_LOG_LEVEL %r; using 'warn'", level)
    elif level in ("info", "debug"):
        _logger()


def _write_output(data: bytes, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        from .fileio import write_bytes

        write_bytes(out, data)


def paranorm(x, spec):
    """:func:`geoseq.summability.paranorm`, loaded on the first call; a
    module attribute, so that a test can put a failing solver in its place."""
    from .summability import paranorm

    return paranorm(x, spec)


def _add_report_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="report format (default: text)",
    )
    p.add_argument("--out", default=None, help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="geoseq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fib = sub.add_parser("fib", help="print Fibonacci numbers and identity status")
    p_fib.add_argument("--n", type=int, required=True, metavar="K")
    p_fib.add_argument(
        "--check-identities", action="store_true",
        help="verify the product and sum identities exactly up to K",
    )

    p_tr = sub.add_parser("transform", help="apply the Fibonacci difference transform")
    p_tr.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p_tr.add_argument("--out", dest="outfile", required=True, metavar="FILE")
    p_tr.add_argument(
        "--domain", choices=("geo", "log"), default="log",
        help="domain of the written output (default: log)",
    )

    p_an = sub.add_parser("analyze", help="membership report for the configured space")
    p_an.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p_an.add_argument("--config", required=True, metavar="CFG")
    _add_report_args(p_an)

    p_pn = sub.add_parser("paranorm", help="scale infimum and paranorm value")
    p_pn.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p_pn.add_argument("--config", required=True, metavar="CFG")
    _add_report_args(p_pn)

    p_st = sub.add_parser("stat", help="window-density trace and verdict")
    p_st.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p_st.add_argument("--config", required=True, metavar="CFG")
    p_st.add_argument(
        "--epsilon", type=float, required=True, metavar="E",
        help="geometric threshold, must exceed 1",
    )
    p_st.add_argument(
        "--ell", type=float, required=True, metavar="L",
        help="geometric limit candidate, must be positive",
    )
    _add_report_args(p_st)

    p_vf = sub.add_parser("verify", help="run the inequality/inclusion suite")
    p_vf.add_argument("--config", required=True, metavar="CFG")
    p_vf.add_argument("--seed", type=int, default=None)
    p_vf.add_argument("--trials", type=int, default=None)
    p_vf.add_argument("--length", type=int, default=56)
    _add_report_args(p_vf)

    return parser


def _cmd_fib(args) -> int:
    from .fibonacci import fib, identity_report

    if args.n < 0:
        raise ValueError("--n must be >= 0")
    # the int-to-str digit limit (Python 3.11+) guards parsing; this is output
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        for k in range(args.n + 1):
            print(f"f({k}) = {fib(k)}")
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    if args.check_identities:
        rep = identity_report(max(1, args.n))
        print(f"product identity (n <= {rep['n_max']}): "
              f"{'ok' if rep['cassini_ok'] else 'VIOLATED'}")
        print(f"sum identity (n <= {rep['n_max']}): "
              f"{'ok' if rep['sum_ok'] else 'VIOLATED'}")
        if not (rep["cassini_ok"] and rep["sum_ok"]):
            return CHECK_FAILURE
    return 0


def _cmd_transform(args) -> int:
    from .fibonacci import difference_transform
    from .fileio import parse_sequence_file, write_sequence_file

    x = parse_sequence_file(args.infile)
    y = difference_transform(x)
    domain = "geometric" if args.domain == "geo" else "log"
    metadata = {"transform": "fibonacci-difference"}
    if not y.in_value_range:
        metadata["value_view"] = "saturated; log view is authoritative"
        _logger().warning("transform left double range; value view saturated")
    write_sequence_file(y, args.outfile, domain=domain, metadata=metadata)
    return 0


def _cmd_analyze(args) -> int:
    from .fileio import emit_report, load_config, parse_sequence_file
    from .membership import classify_membership

    x = parse_sequence_file(args.infile)
    cfg = load_config(args.config)
    report = classify_membership(x, cfg.space_spec(), cfg.tolerances)
    _write_output(emit_report(report, args.format), args.out)
    return 0


def _cmd_paranorm(args) -> int:
    from .fileio import emit_report, load_config, parse_sequence_file

    x = parse_sequence_file(args.infile)
    cfg = load_config(args.config)
    result = paranorm(x, cfg.space_spec())
    _write_output(emit_report(result, args.format), args.out)
    return 0


def _cmd_stat(args) -> int:
    from .fileio import (
        InputError,
        density_report_dict,
        emit_report,
        load_config,
        parse_sequence_file,
    )
    from .geometric import GeoScalar
    from .statconv import stat_converges, stat_density

    x = parse_sequence_file(args.infile)
    cfg = load_config(args.config)
    if args.epsilon <= 1.0:
        raise InputError("--epsilon must exceed 1 (the geometric zero)")
    if args.ell <= 0.0:
        raise InputError("--ell must be positive")
    trace = stat_density(x, cfg.lam, GeoScalar(args.ell), GeoScalar(args.epsilon))
    verdict = stat_converges(trace, cfg.tolerances)
    _write_output(emit_report(density_report_dict(trace, verdict), args.format), args.out)
    return 0


def _cmd_verify(args) -> int:
    from .fileio import InputError, emit_report, load_config
    from .harness import run_suite

    if args.trials is not None and args.trials < 1:
        raise InputError("--trials must be >= 1")
    cfg = load_config(args.config)
    trial_config = cfg.trial_config(
        seed=args.seed, trials=args.trials, length=args.length
    )
    report = run_suite(trial_config)
    _write_output(emit_report(report, args.format), args.out)
    return 0 if report.all_passed else CHECK_FAILURE


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "fib": _cmd_fib,
        "transform": _cmd_transform,
        "analyze": _cmd_analyze,
        "paranorm": _cmd_paranorm,
        "stat": _cmd_stat,
        "verify": _cmd_verify,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # the reader closed stdout: point it at devnull so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"geoseq: input error: cannot write stdout: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except ArithmeticError as exc:  # GeoRangeError, ScaleSolverError, overflow
        print(f"geoseq: numeric range abort: {exc}", file=sys.stderr)
        return RANGE_ABORT
    except ValueError as exc:  # InputError among them
        print(f"geoseq: input error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
