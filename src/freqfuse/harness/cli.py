"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 oracle/protocol
error, 4 check failure. Results go to stdout, diagnostics to stderr.
"""

import argparse
import json
import sys

import numpy as np

from ..encoder import EncoderConfig, patch_tokens
from ..fusion import fuse_sequence, gradient_check, init_params
from ..metrics import SynonymTable, chair, pope_f1
from ..spectral import (
    DEFAULT_CUTOFF,
    AttenuationSpec,
    decompose,
    decompose_attenuated,
)
from .formats import (
    DataFormatError,
    bundled_synonyms_path,
    load_caption_records,
    load_pope_records,
    load_ground_truth,
)
from .imageio import ImageError, load_image, save_image
from .oracle import (
    DEFAULT_MOCK_OBJECTS,
    MOCK_MODES,
    OracleError,
    OracleProtocolError,
    mock_oracle_loop,
)
from .sweep import SweepConfig, run_sweep
from .tokenfile import TokenFileError, write_tokens

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ORACLE = 3
EXIT_CHECK = 4


class _Parser(argparse.ArgumentParser):
    # usage failures exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive(parser, flag, value):
    if not value > 0:  # NaN too
        parser.error(f"{flag} must be positive, got {value:g}")


def cmd_decompose(parser, args):
    _positive(parser, "--cutoff", args.cutoff)
    if args.gamma is not None and not 0.0 <= args.gamma <= 1.0:
        parser.error(f"--gamma must lie in [0, 1], got {args.gamma:g}")
    image = load_image(args.input)
    if args.gamma is None:
        low, high = decompose(image, args.cutoff)
    else:
        spec = AttenuationSpec(
            gamma=args.gamma,
            seed=args.seed,
            mode="constant" if args.const_gamma else "random",
        )
        low, high = decompose_attenuated(image, args.cutoff, spec)
    save_image(low, args.out_low)
    save_image(high, args.out_high)
    print(f"low: {args.out_low}")
    print(f"high: {args.out_high}")
    return EXIT_OK


def cmd_gradcheck(parser, args):
    for flag, value in (("--dim", args.dim), ("--positions", args.positions)):
        if value < 1:
            parser.error(f"{flag} must be at least 1, got {value}")
    _positive(parser, "--tol", args.tol)
    ok, worst = gradient_check(args.dim, args.positions, args.seed, args.tol)
    print(f"gradcheck: worst relative error {worst:.3e} (tol {args.tol:g})")
    if not ok:
        print("gradcheck: FAILED", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def cmd_fuse_demo(parser, args):
    _positive(parser, "--cutoff", args.cutoff)
    for flag, value in (("--patch", args.patch), ("--dim", args.dim)):
        if value < 1:
            parser.error(f"{flag} must be at least 1, got {value}")
    image = load_image(args.input)
    low, high = decompose(image, args.cutoff)
    cfg = EncoderConfig(patch_size=args.patch, dim=args.dim, projection_seed=args.seed)
    v_o = patch_tokens(image, cfg)
    # branches are clamped exactly as an image export would clamp them
    v_l = patch_tokens(np.clip(low, 0.0, 1.0), cfg)
    v_h = patch_tokens(np.clip(high, 0.0, 1.0), cfg)
    params = init_params(args.dim, args.seed)
    fused = fuse_sequence(v_o, v_l, v_h, params)
    write_tokens(fused, args.out)
    print(f"tokens: {fused.shape[0]}x{fused.shape[1]} -> {args.out}")
    print(
        f"fused stats: mean={fused.mean():.6f} std={fused.std():.6f} "
        f"min={fused.min():.6f} max={fused.max():.6f}"
    )
    return EXIT_OK


def cmd_eval_chair(parser, args):
    table = SynonymTable.from_json(args.synonyms or bundled_synonyms_path())
    report = chair(load_caption_records(args.captions, table))
    print(f"chair_i={report.chair_i:.4f}")
    print(f"chair_s={report.chair_s:.4f}")
    print(f"precision={report.precision:.4f}")
    print(f"recall={report.recall:.4f}")
    print(f"f1={report.f1:.4f}")
    print(
        f"captions={report.total_captions} "
        f"hallucinated_captions={report.hallucinated_captions} "
        f"mentions={report.total_mentions} "
        f"hallucinated_mentions={report.hallucinated_mentions}"
    )
    return EXIT_OK


def cmd_eval_pope(parser, args):
    f1_values = []
    for path in args.answers:
        precision, recall, f1, accuracy = pope_f1(load_pope_records(path))
        f1_values.append(f1)
        print(
            f"{path}: precision={precision:.4f} recall={recall:.4f} "
            f"f1={f1:.4f} accuracy={accuracy:.4f}"
        )
    print(f"average_f1={sum(f1_values) / len(f1_values):.4f}")
    return EXIT_OK


def cmd_sweep(parser, args):
    config = SweepConfig.from_json(args.config)
    result = run_sweep(config)
    sys.stdout.write(result.to_csv())
    return EXIT_OK


def cmd_mock_oracle(parser, args):
    if not args.threshold >= 0:
        parser.error(f"--threshold must be non-negative, got {args.threshold:g}")
    objects = tuple(o.strip() for o in args.objects.split(",") if o.strip())
    ground_truth = load_ground_truth(args.ground_truth) if args.ground_truth else None
    try:
        mock_oracle_loop(
            args.mode,
            sys.stdin,
            sys.stdout,
            threshold=args.threshold,
            objects=objects,
            ground_truth=ground_truth,
        )
    except json.JSONDecodeError as exc:
        raise OracleProtocolError(f"malformed request line: {exc.msg}") from None
    except KeyError as exc:
        raise OracleProtocolError(f"request missing field {exc}") from None
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="freqfuse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="split an image into frequency branches")
    p.add_argument("--input", required=True)
    p.add_argument("--cutoff", type=float, default=DEFAULT_CUTOFF)
    p.add_argument("--out-low", required=True)
    p.add_argument("--out-high", required=True)
    p.add_argument("--gamma", type=float, default=None,
                   help="enable spectral damping with this upper bound")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--const-gamma", action="store_true",
                   help="use the constant damping matrix instead of draws")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("gradcheck", help="verify fusion gradients numerically")
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--positions", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("fuse-demo", help="encode, fuse, and dump tokens")
    p.add_argument("--input", required=True)
    p.add_argument("--cutoff", type=float, default=DEFAULT_CUTOFF)
    p.add_argument("--patch", type=int, default=8)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output token file")
    p.set_defaults(func=cmd_fuse_demo)

    p = sub.add_parser("eval", help="score caption or probe files")
    eval_sub = p.add_subparsers(dest="eval_command", required=True)

    pc = eval_sub.add_parser("chair", help="hallucination ratios over captions")
    pc.add_argument("--captions", required=True)
    pc.add_argument("--synonyms", default=None,
                    help="synonym table JSON (default: bundled)")
    pc.set_defaults(func=cmd_eval_chair)

    pp = eval_sub.add_parser("pope", help="yes/no probe F1, averaged over files")
    pp.add_argument("--answers", action="append", required=True)
    pp.set_defaults(func=cmd_eval_pope)

    p = sub.add_parser("sweep", help="cutoff-frequency hallucination sweep")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("mock-oracle", help="deterministic captioner for testing")
    p.add_argument("--mode", required=True, choices=MOCK_MODES)
    p.add_argument("--threshold", type=float, default=0.01)
    p.add_argument("--objects", default=",".join(DEFAULT_MOCK_OBJECTS),
                   help="comma-separated hallucination objects")
    p.add_argument("--ground-truth", default=None,
                   help="ground-truth JSONL for gt/energy modes")
    p.set_defaults(func=cmd_mock_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(parser, args)
    except SystemExit as exc:
        # post-parse validation routed through parser.error
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except OracleError as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except (ImageError, DataFormatError, TokenFileError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    sys.exit(main())
