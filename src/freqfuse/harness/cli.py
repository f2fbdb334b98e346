"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 oracle/protocol
error, 4 check failure. Results go to stdout, diagnostics to stderr.
"""

import argparse
import functools
import os
import sys

import numpy as np

from ..encoder import EncoderConfig, patch_tokens
from ..fusion import fuse_sequence, gradient_check, init_params
from ..metrics import SynonymTable, chair, pope_f1
from ..spectral import (
    DEFAULT_CUTOFF,
    MAX_SIZE,
    AttenuationSpec,
    decompose,
    decompose_attenuated,
    shown,
)
from .formats import (
    bundled_synonyms_path,
    load_caption_records,
    load_pope_records,
    load_ground_truth,
)
from .imageio import image_encoder, load_image, save_image
from .oracle import (
    DEFAULT_MOCK_OBJECTS,
    MOCK_MODES,
    OracleError,
    mock_oracle_loop,
)
from .sweep import SweepConfig, run_sweep
from .tokenfile import write_tokens

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


def _at_least(parser, low, **flags):
    for name, value in flags.items():
        if value < low:
            parser.error(f"--{name} must be at least {low}, got {value}")


def _sizes(parser, **flags):
    """Each flag a size that becomes an array dimension: 1 to MAX_SIZE."""
    _at_least(parser, 1, **flags)
    for name, value in flags.items():
        if value > MAX_SIZE:
            parser.error(f"--{name} must be at most {MAX_SIZE}, got {shown(value)}")


def cmd_decompose(parser, args):
    _positive(parser, "--cutoff", args.cutoff)
    if args.gamma is None and args.const_gamma:
        parser.error("--const-gamma needs --gamma")
    if args.seed is not None:
        # only random damping draws anything to seed
        if args.gamma is None:
            parser.error("--seed needs --gamma")
        if args.const_gamma:
            parser.error("--seed has no use with --const-gamma, which draws nothing")
        _at_least(parser, 0, seed=args.seed)
    if args.gamma is not None and not 0.0 <= args.gamma <= 1.0:
        parser.error(f"--gamma must lie in [0, 1], got {args.gamma:g}")
    # realpath sees symlinks; samefile sees hard links, once both exist
    if os.path.realpath(args.out_low) == os.path.realpath(args.out_high) or (
        os.path.exists(args.out_low)
        and os.path.exists(args.out_high)
        and os.path.samefile(args.out_low, args.out_high)
    ):
        parser.error("--out-low and --out-high name the same file")
    # both outputs' formats are known before anything is read or written
    image_encoder(args.out_low)
    image_encoder(args.out_high)
    image = load_image(args.input)
    if args.gamma is None:
        low, high = decompose(image, args.cutoff)
    else:
        spec = AttenuationSpec(
            gamma=args.gamma,
            seed=args.seed or 0,
            mode="constant" if args.const_gamma else "random",
        )
        low, high = decompose_attenuated(image, args.cutoff, spec)
    save_image(low, args.out_low)
    save_image(high, args.out_high)
    print(f"low: {args.out_low}")
    print(f"high: {args.out_high}")
    return EXIT_OK


def cmd_gradcheck(parser, args):
    _at_least(parser, 0, seed=args.seed)
    _sizes(parser, dim=args.dim, positions=args.positions)
    if not 0 < args.tol < np.inf:  # NaN too
        parser.error(f"--tol must be positive and finite, got {args.tol:g}")
    ok, worst = gradient_check(args.dim, args.positions, args.seed, args.tol)
    print(f"gradcheck: worst relative error {worst:.3e} (tol {args.tol:g})")
    if not ok:
        print("gradcheck: FAILED", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def cmd_fuse_demo(parser, args):
    _at_least(parser, 0, seed=args.seed)
    _positive(parser, "--cutoff", args.cutoff)
    _sizes(parser, patch=args.patch, dim=args.dim)
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


# the modes that read each mock-oracle flag; any other mode refuses it
_MOCK_FLAG_MODES = {
    "threshold": ("energy",),
    "objects": ("fixed", "energy"),
    "ground_truth": ("gt", "energy"),
}


def cmd_mock_oracle(parser, args):
    # a flag not given is absent from args, so the loop's default applies
    given = {k: v for k, v in vars(args).items() if k in _MOCK_FLAG_MODES}
    if "threshold" in given and not given["threshold"] >= 0:
        parser.error(f"--threshold must be non-negative, got {given['threshold']:g}")
    for key in given:
        if args.mode not in _MOCK_FLAG_MODES[key]:
            flag = "--" + key.replace("_", "-")
            parser.error(f"{flag} has no use with --mode {args.mode}")
    if "objects" in given:
        names = (o.strip() for o in given["objects"].split(","))
        given["objects"] = tuple(o for o in names if o)
    if "ground_truth" in given:
        given["ground_truth"] = load_ground_truth(given["ground_truth"])
    try:
        mock_oracle_loop(args.mode, sys.stdin.buffer, sys.stdout, **given)
        sys.stdout.flush()
    except BrokenPipeError:
        pass  # the reader is gone, and nobody is left to tell
    # every reply is written or has no reader: skip the interpreter's
    # teardown, which the harness's close() would otherwise wait out, and
    # which would report the unflushed replies of a broken pipe
    os._exit(EXIT_OK)


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
    p.add_argument("--seed", type=int, default=None,
                   help="with --gamma, seed the damping draws (default 0)")
    p.add_argument("--const-gamma", action="store_true",
                   help="with --gamma, damp by the constant gamma instead of draws")
    p.set_defaults(func=functools.partial(cmd_decompose, p))

    p = sub.add_parser("gradcheck", help="verify fusion gradients numerically")
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--positions", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=functools.partial(cmd_gradcheck, p))

    p = sub.add_parser("fuse-demo", help="encode, fuse, and dump tokens")
    p.add_argument("--input", required=True)
    p.add_argument("--cutoff", type=float, default=DEFAULT_CUTOFF)
    p.add_argument("--patch", type=int, default=8)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output token file")
    p.set_defaults(func=functools.partial(cmd_fuse_demo, p))

    p = sub.add_parser("eval", help="score caption or probe files")
    eval_sub = p.add_subparsers(dest="eval_command", required=True)

    pc = eval_sub.add_parser("chair", help="hallucination ratios over captions")
    pc.add_argument("--captions", required=True)
    pc.add_argument("--synonyms", default=None,
                    help="synonym table JSON (default: bundled)")
    pc.set_defaults(func=functools.partial(cmd_eval_chair, pc))

    pp = eval_sub.add_parser("pope", help="yes/no probe F1, averaged over files")
    pp.add_argument("--answers", action="append", required=True)
    pp.set_defaults(func=functools.partial(cmd_eval_pope, pp))

    p = sub.add_parser("sweep", help="cutoff-frequency hallucination sweep")
    p.add_argument("--config", required=True)
    p.set_defaults(func=functools.partial(cmd_sweep, p))

    p = sub.add_parser("mock-oracle", help="deterministic captioner for testing")
    p.add_argument("--mode", required=True, choices=MOCK_MODES)
    p.add_argument("--threshold", type=float, default=argparse.SUPPRESS,
                   help="energy mode: mean energy at or below which the "
                        "objects are answered (default 0.01)")
    p.add_argument("--objects", default=argparse.SUPPRESS,
                   help="fixed/energy modes: comma-separated hallucination "
                        f"objects (default {','.join(DEFAULT_MOCK_OBJECTS)})")
    p.add_argument("--ground-truth", default=argparse.SUPPRESS,
                   help="gt/energy modes: ground-truth JSONL")
    p.set_defaults(func=functools.partial(cmd_mock_oracle, p))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # each command is bound to its own subparser, so a post-parse
        # parser.error prints that subcommand's usage
        return args.func(args)
    except SystemExit as exc:
        # argparse's own exits, and post-parse validation through parser.error
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except OracleError as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except (OSError, ValueError) as exc:  # DataFormatError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print(f"error: out of memory{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    sys.exit(main())
