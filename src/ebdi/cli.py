"""Command-line interface.

Four subcommands map onto the pipeline stages: ``indicators`` (per-journal
indicator table), ``roles`` (role report plus quadrant scatter plot),
``correlate`` (rank correlations against supplied metrics), and ``network``
(SC-level citation edge list). Exit codes: 0 success (warnings allowed),
1 usage, input or validation error, 2 internal arithmetic error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .errors import ComputationError, EbdiError
from .report import RunConfig, export_sc_network, run_correlations, run_indicators, run_roles

log = logging.getLogger(__name__)


def _add_corpus_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--classification", type=Path, help="subject_categories.csv")
    parser.add_argument("--journals", type=Path, help="journals.csv")
    parser.add_argument("--citations", type=Path, help="citations.csv")
    parser.add_argument("--n-categories", type=int, default=None,
                        help="override the number of possible SCs used for the maximum entropy")
    parser.add_argument("--counting", choices=["whole", "fractional"], default=None,
                        help="attribution of citations to a multi-SC partner's categories "
                             "(default: whole)")
    parser.add_argument("--out", dest="out_dir", metavar="OUT", type=Path, default=Path("."),
                        help="output directory")
    parser.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")
    parser.add_argument("--decimals", type=int, default=2,
                        help="decimal places for rounded CSV reports (0-20)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ebdi",
        description="Entropy-based disciplinarity indicator over journal citation data",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log at DEBUG level")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ind = sub.add_parser("indicators", help="per-(journal, SC, dimension) indicator table")
    _add_corpus_args(p_ind)
    p_ind.add_argument("--focal-sc", default=None,
                       help="analyze only journals of this SC (default: every membership)")

    p_roles = sub.add_parser("roles", help="role taxonomy report and quadrant scatter plot")
    _add_corpus_args(p_roles)
    p_roles.add_argument("--focal-sc", default=None,
                         help="SC whose journals are analyzed (required for journal corpus runs)")
    p_roles.add_argument("--unit-type", choices=["journal", "discipline"], default="journal")
    p_roles.add_argument("--scores", type=Path, default=None,
                         help="precomputed unit_id,cited_ebdi,citing_ebdi CSV instead of a corpus")

    p_corr = sub.add_parser("correlate", help="rank correlations among indicators and metrics")
    _add_corpus_args(p_corr)
    p_corr.add_argument("--focal-sc", default=None)
    p_corr.add_argument("--metrics", type=Path, required=True,
                        help="journal_id,metric_name,value CSV of external metrics")
    p_corr.add_argument("--scores", type=Path, default=None,
                        help="precomputed indicator pairs instead of a corpus")

    p_net = sub.add_parser("network", help="SC-to-SC citation edge list")
    _add_corpus_args(p_net)
    p_net.add_argument("--dimension", choices=["cited", "citing"], required=True)
    p_net.add_argument("--top-k", type=int, default=10,
                       help="retain this many SCs by total citation volume")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 after printing a usage error
        return 1 if exc.code else 0
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(message)s",
        stream=sys.stderr,
    )
    try:
        # every flag's dest is its RunConfig field; RunConfig types and checks them
        config = RunConfig(**{name: getattr(args, name)
                              for name in RunConfig._fields if hasattr(args, name)})
        # built per call, so that a stage replaced on this module (as the benchmark tracer does) runs
        stage, label, noun = {
            "indicators": (run_indicators, "indicators", "rows"),
            "roles": (run_roles, "roles", "units"),
            "correlate": (run_correlations, "correlations", "pairs"),
            "network": (export_sc_network, "network", "edges"),
        }[args.command]
        print(f"{label}: {stage(config)} {noun} -> {config.out_dir}")
    except ComputationError as exc:
        log.error("internal arithmetic error: %s", exc)
        return 2
    except EbdiError as exc:
        log.error("%s", exc)
        return 1
    except OSError as exc:  # inputs raise LoadError, so this is an artifact write
        log.error("cannot write output: %s", exc)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
