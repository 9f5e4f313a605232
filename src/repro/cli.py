"""Command-line toolchain.

Console entry points mirroring the Xilinx tool names the paper's flow
uses:

* ``mb32-cc``      — compile mini-C to assembly or a linked image
* ``mb32-run``     — execute a program on the cycle-accurate ISS
* ``mb32-objdump`` — disassemble a linked image / show symbols
* ``mb32-gdbserver`` — serve a program over the GDB remote protocol
* ``mb32-dse``     — run a design-space sweep from a JSON spec file
* ``mb32-conformance`` — fuzz the co-simulation execution modes against
  the per-cycle reference and check the golden-trace corpus
* ``mb32-profile`` — run a program or co-simulation under telemetry
  (Chrome trace, VCD, metrics snapshot, region/phase profilers)
* ``mb32-faultsim`` — seeded fault-injection campaigns with detection
  and rollback recovery over a hardware/software partition
* ``mb32-farm``    — co-simulation as a service: serve an asyncio job
  farm, submit jobs to it, inspect it, drain it

Images are stored in a simple container: a JSON header line (entry,
sizes, symbols) followed by the raw memory image — enough for the
tools to round-trip programs through files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from repro.asm import assemble, disassemble_program, link
from repro.asm.linker import Program
from repro.iss.cpu import CPUConfig
from repro.iss.run import make_cpu
from repro.mcc import CompileOptions, build_executable, compile_c

MAGIC = "MB32IMG1"


# ----------------------------------------------------------------------
# Image container
# ----------------------------------------------------------------------
def save_image(program: Program, path: str) -> None:
    header = {
        "magic": MAGIC,
        "entry": program.entry,
        "text_size": program.text_size,
        "data_size": program.data_size,
        "bss_size": program.bss_size,
        "stack_size": program.stack_size,
        "memory_size": program.memory_size,
        "symbols": program.symbols,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        fh.write(program.image)


def load_image(path: str) -> Program:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        image = fh.read()
    header = json.loads(header_line)
    if header.get("magic") != MAGIC:
        raise ValueError(f"{path}: not an MB32 image")
    return Program(
        image=image,
        symbols={k: int(v) for k, v in header["symbols"].items()},
        entry=header["entry"],
        text_size=header["text_size"],
        data_size=header["data_size"],
        bss_size=header["bss_size"],
        stack_size=header["stack_size"],
        memory_size=header["memory_size"],
    )


@dataclass(frozen=True)
class TargetFlags:
    """Single source of truth for the processor-target CLI flags.

    Both the compiler's :class:`CompileOptions` and the ISS's
    :class:`CPUConfig` derive from the same record, so the two can
    never disagree on a target flag (a mismatch traps at the first
    offending instruction instead of miscomputing).
    """

    hw_multiplier: bool = True
    hw_divider: bool = False
    hw_barrel_shifter: bool = True
    register_locals: bool = True

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "TargetFlags":
        return cls(
            hw_multiplier=not args.no_mult,
            hw_divider=args.hw_div,
            hw_barrel_shifter=not args.no_barrel,
            register_locals=not args.no_regalloc,
        )

    def compile_options(self) -> CompileOptions:
        return CompileOptions(
            hw_multiplier=self.hw_multiplier,
            hw_divider=self.hw_divider,
            hw_barrel_shifter=self.hw_barrel_shifter,
            register_locals=self.register_locals,
        )

    def cpu_config(self) -> CPUConfig:
        return CPUConfig(
            use_hw_multiplier=self.hw_multiplier,
            use_hw_divider=self.hw_divider,
            use_barrel_shifter=self.hw_barrel_shifter,
        )


def _add_target_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-mult", action="store_true",
                        help="target a processor without the hardware "
                             "multiplier")
    parser.add_argument("--hw-div", action="store_true",
                        help="target a processor with the hardware divider")
    parser.add_argument("--no-barrel", action="store_true",
                        help="target a processor without the barrel shifter")
    parser.add_argument("--no-regalloc", action="store_true",
                        help="disable register allocation of locals")


def _read_source(path: str) -> str:
    """Read a source file, with ``-`` denoting stdin."""
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# ----------------------------------------------------------------------
# mb32-cc
# ----------------------------------------------------------------------
def cc_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mb32-cc", description="mini-C compiler for MB32"
    )
    parser.add_argument("source", help="mini-C source file ('-' for stdin)")
    parser.add_argument("-o", "--output", help="output file")
    parser.add_argument("-S", action="store_true",
                        help="emit assembly text instead of a linked image")
    _add_target_flags(parser)
    args = parser.parse_args(argv)

    text = _read_source(args.source)
    options = TargetFlags.from_args(args).compile_options()
    try:
        if args.S:
            asm = compile_c(text, options)
            if args.output:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(asm)
            else:
                sys.stdout.write(asm)
            return 0
        program = build_executable(text, options)
    except Exception as exc:
        print(f"mb32-cc: error: {exc}", file=sys.stderr)
        return 1
    out = args.output or "a.img"
    save_image(program, out)
    print(f"mb32-cc: wrote {out} ({program.load_size} bytes, "
          f"entry {program.entry:#x})")
    return 0


# ----------------------------------------------------------------------
# mb32-as
# ----------------------------------------------------------------------
def as_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mb32-as", description="MB32 assembler + linker"
    )
    parser.add_argument("sources", nargs="+",
                        help="assembly files ('-' for stdin)")
    parser.add_argument("-o", "--output", default="a.img")
    parser.add_argument("--entry", default="_start")
    args = parser.parse_args(argv)
    try:
        modules = [
            assemble(_read_source(p),
                     name="<stdin>" if p == "-" else p)
            for p in args.sources
        ]
        program = link(modules, entry_symbol=args.entry)
    except Exception as exc:
        print(f"mb32-as: error: {exc}", file=sys.stderr)
        return 1
    save_image(program, args.output)
    print(f"mb32-as: wrote {args.output} ({program.load_size} bytes)")
    return 0


# ----------------------------------------------------------------------
# mb32-run
# ----------------------------------------------------------------------
def run_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mb32-run", description="run an MB32 image on the ISS"
    )
    parser.add_argument("image")
    parser.add_argument("--max-cycles", type=int, default=50_000_000)
    parser.add_argument("--stats", action="store_true",
                        help="print execution statistics")
    parser.add_argument("--trace", type=int, metavar="N", default=0,
                        help="print the first N retired instructions")
    _add_target_flags(parser)
    args = parser.parse_args(argv)

    program = load_image(args.image)
    cpu = make_cpu(program, config=TargetFlags.from_args(args).cpu_config())
    tracer = None
    if args.trace:
        from repro.iss.trace import InstructionTracer

        tracer = InstructionTracer(cpu, limit=args.trace).install()
    cpu.run(max_cycles=args.max_cycles)
    if tracer is not None:
        print(tracer.text())
    if cpu.mem.console.text:
        sys.stdout.write(cpu.mem.console.text)
        if not cpu.mem.console.text.endswith("\n"):
            sys.stdout.write("\n")
    if args.stats:
        print(cpu.stats.summary())
        print(f"simulated time: {cpu.simulated_time_s() * 1e6:.1f} us "
              f"at {cpu.config.frequency_hz / 1e6:.0f} MHz")
    if cpu.exit_code is None:
        print("mb32-run: program did not exit "
              f"(stopped after {cpu.cycle} cycles)", file=sys.stderr)
        return 2
    print(f"mb32-run: exit code {cpu.exit_code} ({cpu.cycle} cycles)")
    return 0 if cpu.exit_code == 0 else min(max(cpu.exit_code, 0), 125)


# ----------------------------------------------------------------------
# mb32-objdump
# ----------------------------------------------------------------------
def objdump_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mb32-objdump", description="disassemble an MB32 image"
    )
    parser.add_argument("image")
    parser.add_argument("-t", "--symbols", action="store_true",
                        help="print the symbol table instead")
    args = parser.parse_args(argv)
    program = load_image(args.image)
    try:
        if args.symbols:
            for name, addr in sorted(program.symbols.items(),
                                     key=lambda kv: kv[1]):
                print(f"{addr:08x}  {name}")
            return 0
        print(disassemble_program(program.image, 0, program.text_size,
                                  symbols=program.symbols))
    except BrokenPipeError:  # e.g. piped into `head`
        sys.stderr.close()
    return 0


# ----------------------------------------------------------------------
# mb32-gdbserver
# ----------------------------------------------------------------------
def gdbserver_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mb32-gdbserver",
        description="serve an MB32 image over the GDB remote protocol",
    )
    parser.add_argument("image")
    parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port to bind (default 0 = ephemeral: the kernel picks "
             "a free port, so parallel CI jobs never race)",
    )
    parser.add_argument(
        "--port-file", metavar="FILE",
        help="write the actually bound port number to FILE (the "
             "machine-readable handshake scripts poll instead of "
             "parsing stdout)",
    )
    _add_target_flags(parser)
    args = parser.parse_args(argv)

    from repro.gdb import Debugger, GdbServer

    program = load_image(args.image)
    cpu = make_cpu(program, config=TargetFlags.from_args(args).cpu_config())
    server = GdbServer(Debugger(cpu, program), port=args.port)
    host, port = server.address[0], server.address[1]
    print(f"mb32-gdbserver: listening on {host}:{port}")
    # a stable, single-token machine-readable line (also on stdout)
    print(f"mb32-gdbserver: port {port}", flush=True)
    if args.port_file:
        with open(args.port_file, "w", encoding="utf-8") as fh:
            fh.write(f"{port}\n")
    try:
        server.serve_one()
    except KeyboardInterrupt:
        server.stop()
        print("mb32-gdbserver: interrupted — shut down cleanly")
        return 0
    print(f"mb32-gdbserver: session ended "
          f"(pc={cpu.pc:#010x}, exit={cpu.exit_code})")
    return 0


# ----------------------------------------------------------------------
# mb32-dse
# ----------------------------------------------------------------------
def _load_sweep_spec(path: str):
    """Parse an ``mb32-dse`` spec file into (specs, options).

    The file is JSON with two ways to name points:

    * ``"points"`` — explicit :class:`DesignSpec` records
      (``name``/``factory``/``params``),
    * ``"generate"`` — shorthand for the built-in families, e.g.
      ``{"app": "cordic", "ps": [0, 2, 4], "iters": 24, "ndata": 32}``
      or ``{"app": "matmul", "blocks": [0, 2, 4], "matn": 16}``.

    Top-level ``workers``/``timeout_s``/``retries``/``cache``/
    ``constraints`` become sweep options (CLI flags override them).
    """
    from repro.cosim.partition import DesignSpec

    data = json.loads(_read_source(path))
    if not isinstance(data, dict):
        raise ValueError("spec file must be a JSON object")
    points = data.get("points", [])
    if not isinstance(points, list):
        raise ValueError('"points" must be a JSON array of point objects')
    specs = []
    for index, point in enumerate(points):
        if not isinstance(point, dict):
            raise ValueError(
                f'"points"[{index}] must be an object with '
                f'"name"/"factory"/"params", got {type(point).__name__}')
        try:
            specs.append(DesignSpec.from_dict(point))
        except KeyError as exc:
            raise ValueError(
                f'"points"[{index}] is missing required key {exc}') from exc
    generate = data.get("generate")
    if generate is not None:
        if not isinstance(generate, dict):
            raise ValueError('"generate" must be a JSON object')
        params = dict(generate)
        app = params.pop("app", None)
        if app == "cordic":
            from repro.apps.cordic.design import cordic_design_specs

            if "ps" in params:
                params["ps"] = tuple(params["ps"])
            specs += cordic_design_specs(**params)
        elif app == "matmul":
            from repro.apps.matmul.design import matmul_design_specs

            if "blocks" in params:
                params["blocks"] = tuple(params["blocks"])
            specs += matmul_design_specs(**params)
        else:
            raise ValueError(
                f"unknown generate.app {app!r} (expected 'cordic' or "
                f"'matmul')"
            )
    if not specs:
        raise ValueError("spec file names no design points")
    options = {
        "workers": data.get("workers"),
        "timeout_s": data.get("timeout_s"),
        "retries": data.get("retries"),
        "cache": data.get("cache"),
        "constraints": data.get("constraints", {}),
    }
    return specs, options


def dse_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mb32-dse",
        description="run a design-space sweep from a JSON spec file",
    )
    parser.add_argument("spec", help="sweep spec file ('-' for stdin)")
    parser.add_argument("-o", "--output", metavar="FILE",
                        help="write the JSON report here")
    parser.add_argument("--markdown", metavar="FILE",
                        help="also write a Markdown report")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (0 = in-process sequential)")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-point wall-clock budget in seconds")
    parser.add_argument("--retries", type=int, default=None,
                        help="extra attempts for timeout/error points")
    parser.add_argument("--retry-backoff", type=float, default=0.0,
                        metavar="S",
                        help="base seconds of seeded jittered exponential "
                             "backoff between retries (0 = immediate); "
                             "the schedule is recorded per point")
    parser.add_argument("--cache", metavar="DIR",
                        help="on-disk result cache directory")
    parser.add_argument("--journal", metavar="FILE",
                        help="JSON-lines resume journal: every completed "
                             "point is flushed here as it lands")
    parser.add_argument("--resume", action="store_true",
                        help="replay completed points from --journal and "
                             "evaluate only the rest (a killed sweep "
                             "continues where it stopped)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore any cache named in the spec file")
    parser.add_argument("--telemetry", action="store_true",
                        help="run every point instrumented and attach its "
                             "metric snapshot to the per-point report "
                             "record (cache hits carry none)")
    parser.add_argument("--batch", nargs="?", const=-1, type=int,
                        default=None, metavar="WIDTH",
                        help="evaluate structurally identical points in "
                             "lockstep on the batched vector engine, up to "
                             "WIDTH lanes at a time (default 32); "
                             "incompatible with --workers/--retries/"
                             "--journal/--telemetry")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-point progress line")
    args = parser.parse_args(argv)

    from repro.cosim.report import format_sweep, sweep_to_json, \
        sweep_to_markdown
    from repro.cosim.sweep import sweep
    from repro.cosim.sweep_batched import DEFAULT_BATCH_WIDTH, sweep_batched

    try:
        specs, options = _load_sweep_spec(args.spec)
    except (OSError, ValueError, KeyError) as exc:
        print(f"mb32-dse: spec error: {exc}", file=sys.stderr)
        return 2

    workers = args.workers if args.workers is not None else \
        int(options["workers"] or 0)
    timeout_s = args.timeout if args.timeout is not None else \
        options["timeout_s"]
    retries = args.retries if args.retries is not None else \
        int(options["retries"] or 0)
    cache_dir = None if args.no_cache else (args.cache or options["cache"])
    if args.resume and not args.journal:
        print("mb32-dse: spec error: --resume needs --journal FILE",
              file=sys.stderr)
        return 2
    batch_width = args.batch
    if batch_width == -1:
        batch_width = DEFAULT_BATCH_WIDTH
    if batch_width is not None and (
        workers > 0 or retries > 0 or args.journal or args.telemetry
    ):
        print("mb32-dse: spec error: --batch is incompatible with "
              "--workers/--retries/--journal/--telemetry (those are "
              "scalar-sweep features)", file=sys.stderr)
        return 2

    def progress(p):
        if args.quiet:
            return
        last = p.last.point.name if p.last is not None else ""
        status = p.last.status if p.last is not None else ""
        print(
            f"mb32-dse: [{p.done}/{p.total}] {last}: {status}"
            f"{' (cached)' if p.last is not None and p.last.cache_hit else ''}"
            f" — {p.cache_hits} cache hits, {p.active_workers} active, "
            f"{p.cycles_per_second:,.0f} cyc/s aggregate",
            file=sys.stderr,
        )

    try:
        if batch_width is not None:
            report = sweep_batched(
                specs,
                batch_width=batch_width,
                timeout_s=timeout_s,
                cache_dir=cache_dir,
                progress=progress,
            )
        else:
            report = sweep(
                specs,
                workers=workers,
                timeout_s=timeout_s,
                retries=retries,
                retry_backoff_s=args.retry_backoff,
                cache_dir=cache_dir,
                journal=args.journal,
                resume=args.resume,
                progress=progress,
                telemetry=args.telemetry,
            )
    except ValueError as exc:  # journal/spec mismatch on --resume
        print(f"mb32-dse: spec error: {exc}", file=sys.stderr)
        return 2

    constraints = {
        key: options["constraints"][spec_key]
        for key, spec_key in (
            ("max_slices", "max_slices"),
            ("max_brams", "max_brams"),
            ("max_mult18", "max_mult18"),
        )
        if spec_key in options["constraints"]
    }
    print(format_sweep(report))
    if constraints and report.ok:
        winner = report.best(**constraints)
        if winner.ok:
            print(f"\nfastest within {constraints}: {winner.point.name} "
                  f"({winner.cycles} cycles, {winner.slices} slices)")
    payload = sweep_to_json(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        print(f"mb32-dse: wrote {args.output}")
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as fh:
            fh.write(sweep_to_markdown(report))
        print(f"mb32-dse: wrote {args.markdown}")
    if not args.output and not args.markdown:
        print(payload)
    return 0 if not report.failed else 1


# ----------------------------------------------------------------------
# mb32-profile
# ----------------------------------------------------------------------
def _add_profile_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="FILE",
                        help="write a Chrome trace-event JSON file "
                             "('-' for stdout) — open in Perfetto or "
                             "chrome://tracing")
    parser.add_argument("--vcd", metavar="FILE",
                        help="write a value-change dump of pc, stall "
                             "state and FIFO occupancies")
    parser.add_argument("--metrics", metavar="FILE",
                        help="write the metrics snapshot as JSON "
                             "('-' for stdout)")
    parser.add_argument("--regions", action="store_true",
                        help="profile simulated cycles by program "
                             "symbol/region")
    parser.add_argument("--phases", action="store_true",
                        help="time simulator wall clock by phase "
                             "(CPU step / block step / fast-forward scan)")
    parser.add_argument("--per-cycle", action="store_true",
                        help="use per-cycle co-simulation instead of the "
                             "fast-forward kernel (co-sim apps only)")
    parser.add_argument("--max-trace-events", type=int, default=1_000_000,
                        metavar="N",
                        help="cap Chrome trace records to bound memory "
                             "(default 1000000; excess is counted as "
                             "dropped)")


def _profile_preflight(args: argparse.Namespace) -> str | None:
    """Validate input/output paths before any (possibly long) run.

    Returns a one-line error message, or ``None`` when everything is
    usable — ``mb32-profile`` turns a message into exit code 2 so a
    bad path fails in milliseconds instead of after the simulation.
    """
    if args.app == "run" and args.source != "-":
        if not os.path.exists(args.source):
            return f"image or source file not found: {args.source}"
        if os.path.isdir(args.source):
            return f"{args.source} is a directory, not a program"
        if not os.access(args.source, os.R_OK):
            return f"cannot read {args.source}: permission denied"
    for flag in ("trace", "vcd", "metrics"):
        path = getattr(args, flag, None)
        if not path or path == "-":
            continue
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            return (f"--{flag}: directory does not exist: "
                    f"{parent}")
        if os.path.isdir(path):
            return f"--{flag}: {path} is a directory"
        probe = path if os.path.exists(path) else parent
        if not os.access(probe, os.W_OK):
            return f"--{flag}: cannot write {path}: permission denied"
    return None


def profile_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mb32-profile",
        description="run a program or co-simulation under telemetry: "
                    "Chrome trace, VCD, metrics snapshot, profilers",
    )
    sub = parser.add_subparsers(dest="app", required=True)

    run_p = sub.add_parser(
        "run", help="profile a mini-C program or image on the bare ISS")
    run_p.add_argument("source",
                       help="mini-C source ('-' for stdin) or a .img image")
    run_p.add_argument("--max-cycles", type=int, default=50_000_000)
    _add_target_flags(run_p)

    cordic_p = sub.add_parser(
        "cordic", help="profile a CORDIC co-simulation design point")
    cordic_p.add_argument("--p", type=int, default=4,
                          help="pipeline PEs (0 = pure software)")
    cordic_p.add_argument("--iters", type=int, default=24)
    cordic_p.add_argument("--ndata", type=int, default=32)
    cordic_p.add_argument("--fifo-depth", type=int, default=16)

    matmul_p = sub.add_parser(
        "matmul", help="profile a matmul co-simulation design point")
    matmul_p.add_argument("--block", type=int, default=4,
                          help="hardware block size (0 = pure software)")
    matmul_p.add_argument("--matn", type=int, default=16)
    matmul_p.add_argument("--fifo-depth", type=int, default=16)

    for p in (run_p, cordic_p, matmul_p):
        _add_profile_output_flags(p)
    args = parser.parse_args(argv)

    error = _profile_preflight(args)
    if error is not None:
        print(f"mb32-profile: error: {error}", file=sys.stderr)
        return 2

    import contextlib

    from repro.apps.common import VerificationError, run_software_only
    from repro.cosim.environment import CoSimDeadlock
    from repro.telemetry import Telemetry, telemetry_scope
    from repro.telemetry.export import ChromeTraceExporter, CosimVCDExporter

    # -- build the target ----------------------------------------------
    if args.app == "run":
        flags = TargetFlags.from_args(args)
        try:
            if args.source != "-" and args.source.endswith(".img"):
                program = load_image(args.source)
            else:
                program = build_executable(
                    _read_source(args.source), flags.compile_options())
        except Exception as exc:
            print(f"mb32-profile: error: {exc}", file=sys.stderr)
            return 1
        name = args.source
        channels = ()

        def runner():
            result, _cpu = run_software_only(
                program, flags.cpu_config(), max_cycles=args.max_cycles)
            return result
    elif args.app == "cordic":
        from repro.apps.cordic.design import CordicDesign

        design = CordicDesign(p=args.p, iters=args.iters, ndata=args.ndata,
                              fifo_depth=args.fifo_depth,
                              fast_forward=not args.per_cycle)
        program, name = design.program, design.name
        channels = design.mb.channels() if design.mb is not None else ()
        runner = design.run
    else:
        from repro.apps.matmul.design import MatmulDesign

        design = MatmulDesign(block=args.block, matn=args.matn,
                              fifo_depth=args.fifo_depth,
                              fast_forward=not args.per_cycle)
        program, name = design.program, design.name
        channels = design.mb.channels() if design.mb is not None else ()
        runner = design.run

    # -- wire telemetry + exporters, then run --------------------------
    telemetry = Telemetry()
    if args.regions:
        telemetry.enable_regions(program)
    if args.phases:
        telemetry.enable_phases()
    tracer = None
    if args.trace:
        tracer = ChromeTraceExporter(telemetry.bus,
                                     max_events=args.max_trace_events)

    status = 0
    with contextlib.ExitStack() as stack:
        vcd = None
        if args.vcd:
            vcd_fh = stack.enter_context(
                open(args.vcd, "w", encoding="utf-8"))
            vcd = CosimVCDExporter(telemetry.bus, vcd_fh, channels)
        try:
            with telemetry_scope(telemetry):
                result = runner()
        except (VerificationError, CoSimDeadlock) as exc:
            print(f"mb32-profile: {name}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return 1

    # -- emit ----------------------------------------------------------
    if tracer is not None:
        if args.trace == "-":
            tracer.write(sys.stdout)
        else:
            with open(args.trace, "w", encoding="utf-8") as fh:
                tracer.write(fh)
            print(f"mb32-profile: wrote {args.trace} "
                  f"({len(tracer.trace_events())} trace events, "
                  f"{tracer.dropped} dropped)", file=sys.stderr)
    if vcd is not None:
        print(f"mb32-profile: wrote {args.vcd} ({vcd.changes} value "
              f"changes)", file=sys.stderr)

    snapshot = telemetry.snapshot(result)
    if args.metrics:
        payload = json.dumps(snapshot, indent=2, sort_keys=True)
        if args.metrics == "-":
            print(payload)
        else:
            with open(args.metrics, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
            print(f"mb32-profile: wrote {args.metrics}", file=sys.stderr)
    else:
        print(f"mb32-profile: {name}: exit {result.exit_code} — "
              f"{result.cycles} cycles, {result.instructions} "
              f"instructions, {result.stall_cycles} stalls "
              f"({result.cycles_per_wall_second:,.0f} cyc/s)")
        stalls = snapshot.get("stalls_by_channel", {})
        if stalls:
            for channel, cycles in sorted(stalls.items()):
                print(f"  stall {channel}: {cycles} cycles")
        ff = snapshot.get("fast_forward")
        if ff and ff.get("windows"):
            print(f"  fast-forward: {ff['windows']} windows, "
                  f"{ff['skipped_cycles']} cycles "
                  f"({100.0 * ff['skip_ratio']:.1f}% skipped)")
        if telemetry.regions is not None:
            print(telemetry.regions.text())
        if telemetry.phases is not None:
            print(telemetry.phases.text(result.wall_seconds))
    if result.exit_code is None:
        print(f"mb32-profile: {name}: did not terminate", file=sys.stderr)
        status = 2
    return status


# ----------------------------------------------------------------------
# mb32-conformance
# ----------------------------------------------------------------------
def conformance_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mb32-conformance",
        description="differential conformance fuzzing of the "
                    "co-simulation execution modes",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="scenario-generator seed (default 0)")
    parser.add_argument("--count", type=int, default=50, metavar="N",
                        help="number of random scenarios to check "
                             "(default 50; 0 = corpus check only)")
    parser.add_argument("--family", choices=("single", "multi"),
                        default="single",
                        help="scenario family: 'single' fuzzes one CPU "
                             "with a random hardware pipeline, 'multi' "
                             "fuzzes 2-4 CPUs over pipeline/ring/mesh "
                             "FSL topologies (default single)")
    parser.add_argument("--engine", choices=("auto", "compiled",
                                             "interpreter"),
                        default="auto",
                        help="sysgen execution engine for every run, "
                             "golden-corpus checks included (default auto)")
    parser.add_argument("--modes", default=None, metavar="M1,M2,...",
                        help="execution modes to diff against per_cycle "
                             "(default: all)")
    parser.add_argument("--corpus", metavar="DIR",
                        help="golden-trace corpus directory to check "
                             "(or write, with --bless)")
    parser.add_argument("--bless", action="store_true",
                        help="(re)write golden traces for the pinned "
                             "scenarios instead of checking them")
    parser.add_argument("--pin", default=None, metavar="I1,I2,...",
                        help="scenario indexes to bless into the corpus "
                             "(default: 0..count-1)")
    parser.add_argument("-o", "--output", metavar="FILE",
                        help="write the JSON report here")
    parser.add_argument("--max-cycles", type=int, default=60_000,
                        help="per-scenario cycle budget (default 60000)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip shrinking divergent scenarios")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-scenario progress line")
    args = parser.parse_args(argv)

    from repro.conformance import (
        ALL_MODES,
        ConformanceReport,
        MultiScenarioGenerator,
        ScenarioGenerator,
        bless_golden,
        check_golden,
        check_scenario,
        shrink_scenario,
    )
    from repro.cosim.report import (
        conformance_to_json,
        format_conformance,
        format_drift,
    )

    if args.modes is None:
        modes = ALL_MODES
    else:
        modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
        unknown = [m for m in modes if m not in ALL_MODES]
        if unknown:
            print(f"mb32-conformance: unknown mode(s) "
                  f"{', '.join(unknown)}; choose from {', '.join(ALL_MODES)}",
                  file=sys.stderr)
            return 2
        if not modes:
            print("mb32-conformance: --modes names no modes",
                  file=sys.stderr)
            return 2
    if args.count < 0:
        print("mb32-conformance: --count must be >= 0", file=sys.stderr)
        return 2
    if args.bless and not args.corpus:
        print("mb32-conformance: --bless needs --corpus DIR",
              file=sys.stderr)
        return 2

    generator_cls = (MultiScenarioGenerator if args.family == "multi"
                     else ScenarioGenerator)
    generator = generator_cls(seed=args.seed, max_cycles=args.max_cycles)

    if args.pin is not None:
        try:
            pinned = [int(p) for p in args.pin.split(",") if p.strip()]
        except ValueError:
            print(f"mb32-conformance: --pin must be a comma-separated "
                  f"index list, got {args.pin!r}", file=sys.stderr)
            return 2
    else:
        pinned = list(range(args.count))

    if args.bless:
        scenarios = [generator.scenario(i) for i in pinned]
        if not scenarios:
            print("mb32-conformance: nothing to bless (use --count or "
                  "--pin)", file=sys.stderr)
            return 2
        written = bless_golden(args.corpus, scenarios)
        for path in written:
            print(f"mb32-conformance: blessed {path}")
        return 0

    failed = False

    if args.corpus:
        entries = check_golden(args.corpus, modes=modes,
                               engine=args.engine)
        if not entries:
            print(f"mb32-conformance: no golden traces in {args.corpus}",
                  file=sys.stderr)
            return 2
        print(format_drift(entries))
        if any(not e.ok for e in entries):
            failed = True

    report = ConformanceReport(seed=args.seed, modes=modes)
    if args.count > 0:
        for index in range(args.count):
            scenario = generator.scenario(index)
            verdict = check_scenario(scenario, modes, engine=args.engine)
            if not verdict.ok and not verdict.build_error \
                    and not args.no_shrink:
                failing = tuple(verdict.divergences)
                verdict.shrunk = shrink_scenario(scenario, failing)
            report.verdicts.append(verdict)
            if not args.quiet:
                status = (verdict.reference.status if verdict.reference
                          else "build-error")
                tag = "ok" if verdict.ok else "DIVERGED"
                print(f"mb32-conformance: [{index + 1}/{args.count}] "
                      f"{scenario.name}: {tag} ({status})",
                      file=sys.stderr)
        print(format_conformance(report))
        if not report.ok:
            failed = True

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(conformance_to_json(report) + "\n")
        print(f"mb32-conformance: wrote {args.output}")
    return 1 if failed else 0


# ----------------------------------------------------------------------
# mb32-faultsim
# ----------------------------------------------------------------------
def faultsim_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mb32-faultsim",
        description="run a seeded fault-injection campaign against a "
                    "hardware/software partition and classify every "
                    "trial (masked / sdc / detected / hang / crash / "
                    "recovered)",
    )
    sub = parser.add_subparsers(dest="app", required=True)

    cordic_p = sub.add_parser(
        "cordic", help="inject into a CORDIC co-simulation")
    cordic_p.add_argument("--p", type=int, default=4,
                          help="pipeline PEs (must be >= 1)")
    cordic_p.add_argument("--iters", type=int, default=24)
    cordic_p.add_argument("--ndata", type=int, default=32)
    cordic_p.add_argument("--fifo-depth", type=int, default=16)

    matmul_p = sub.add_parser(
        "matmul", help="inject into a matmul co-simulation")
    matmul_p.add_argument("--block", type=int, default=4,
                          help="hardware block size (must be >= 1)")
    matmul_p.add_argument("--matn", type=int, default=16)
    matmul_p.add_argument("--fifo-depth", type=int, default=16)

    pipe_p = sub.add_parser(
        "cordic-pipe",
        help="inject into the K-CPU pipelined CORDIC (adds link_drop "
             "and node_stall fault kinds)")
    pipe_p.add_argument("--stages", type=int, default=4,
                        help="rotation-stage CPUs (n_cpus = stages + 2)")
    pipe_p.add_argument("--iters", type=int, default=24)
    pipe_p.add_argument("--ndata", type=int, default=32)
    pipe_p.add_argument("--link-depth", type=int, default=16,
                        help="inter-CPU FSL link depth")

    mesh_p = sub.add_parser(
        "mesh",
        help="inject into a 2D-mesh dataflow design (one CPU per mesh "
             "node; link_drop/node_stall in the kind pool)")
    mesh_p.add_argument("--rows", type=int, default=2)
    mesh_p.add_argument("--cols", type=int, default=2)
    mesh_p.add_argument("--tokens", type=int, default=8,
                        help="data words streamed through the mesh")
    mesh_p.add_argument("--link-depth", type=int, default=8,
                        help="inter-CPU FSL link depth")

    for p in (cordic_p, matmul_p, pipe_p, mesh_p):
        p.add_argument("--trials", type=int, default=100,
                       help="number of seeded injections (default 100)")
        p.add_argument("--seed", type=int, default=2005,
                       help="campaign master seed; trial i derives "
                            "'{seed}/{i}'")
        p.add_argument("--recovery", choices=("none", "rollback"),
                       default="none",
                       help="rollback restores the pre-fault checkpoint "
                            "and re-runs on any non-masked outcome")
        p.add_argument("--max-retries", type=int, default=2,
                       help="rollback attempts per trial (default 2)")
        p.add_argument("--deadlock-window", type=int, default=2_048,
                       help="progress-watchdog window in cycles "
                            "(default 2048 — tight, to detect hangs fast)")
        p.add_argument("--max-cycles", type=int, default=2_000_000,
                       help="per-trial cycle budget")
        p.add_argument("--jobs", type=int, default=0, metavar="N",
                       help="worker processes (0 = in-process sequential; "
                            "reports are identical either way)")
        p.add_argument("--batch", nargs="?", const=-1, type=int,
                       default=None, metavar="WIDTH",
                       help="run trials in lockstep on the batched vector "
                            "engine, up to WIDTH at a time (default 32); "
                            "the report is identical to the scalar one; "
                            "incompatible with --jobs/--timeout/--journal")
        p.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-trial wall-clock budget in seconds")
        p.add_argument("--journal", metavar="FILE",
                       help="JSON-lines resume journal for the trial sweep")
        p.add_argument("--resume", action="store_true",
                       help="replay completed trials from --journal")
        p.add_argument("--json", metavar="FILE", dest="json_out",
                       help="write the deterministic JSON report here "
                            "('-' for stdout)")
        p.add_argument("--markdown", metavar="FILE",
                       help="write a Markdown outcome table here")
        p.add_argument("--quiet", action="store_true",
                       help="suppress the per-trial progress line")
    args = parser.parse_args(argv)

    from repro.apps.common import VerificationError
    from repro.faults import CampaignConfig, run_campaign

    if args.app == "cordic":
        design = {"p": args.p, "iters": args.iters, "ndata": args.ndata,
                  "fifo_depth": args.fifo_depth}
    elif args.app == "cordic-pipe":
        design = {"stages": args.stages, "iters": args.iters,
                  "ndata": args.ndata, "link_depth": args.link_depth}
    elif args.app == "mesh":
        design = {"rows": args.rows, "cols": args.cols,
                  "tokens": args.tokens, "link_depth": args.link_depth}
    else:
        design = {"block": args.block, "matn": args.matn,
                  "fifo_depth": args.fifo_depth}
    if args.resume and not args.journal:
        print("mb32-faultsim: error: --resume needs --journal FILE",
              file=sys.stderr)
        return 2
    batch_width = args.batch
    if batch_width == -1:
        batch_width = 32
    if batch_width is not None and (
        args.jobs or args.timeout or args.journal or args.resume
    ):
        print("mb32-faultsim: error: --batch is incompatible with "
              "--jobs/--timeout/--journal/--resume (those are "
              "scalar-engine features)", file=sys.stderr)
        return 2
    try:
        config = CampaignConfig(
            app=args.app,
            design=design,
            trials=args.trials,
            seed=args.seed,
            recovery=args.recovery,
            max_retries=args.max_retries,
            deadlock_window=args.deadlock_window,
            max_cycles=args.max_cycles,
        )
    except ValueError as exc:
        print(f"mb32-faultsim: error: {exc}", file=sys.stderr)
        return 2

    def progress(p):
        if args.quiet:
            return
        last = p.last.metrics if p.last is not None and p.last.metrics \
            else None
        outcome = last["outcome"] if last else (
            p.last.status if p.last is not None else "")
        print(f"mb32-faultsim: [{p.done}/{p.total}] {outcome}",
              file=sys.stderr)

    try:
        report = run_campaign(
            config,
            workers=args.jobs,
            timeout_s=args.timeout,
            journal=args.journal,
            resume=args.resume,
            progress=progress,
            batch_width=batch_width,
        )
    except ValueError as exc:  # bad design params or journal mismatch
        print(f"mb32-faultsim: error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"mb32-faultsim: baseline run failed: {exc}",
              file=sys.stderr)
        return 1

    print(report.to_markdown())
    if args.json_out:
        payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        if args.json_out == "-":
            print(payload)
        else:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
            print(f"mb32-faultsim: wrote {args.json_out}")
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as fh:
            fh.write(report.to_markdown())
        print(f"mb32-faultsim: wrote {args.markdown}")
    counts = report.counts
    return 1 if counts["crash"] else 0


# ----------------------------------------------------------------------
# mb32-farm
# ----------------------------------------------------------------------
def _farm_client(args):
    from repro.farm import FarmClient

    return FarmClient(args.host, args.port, tenant=args.tenant)


def _farm_serve(args) -> int:
    import asyncio
    import contextlib
    import signal

    from repro.farm.gateway import FarmGateway

    if args.recover and not args.journal:
        print("mb32-farm: --recover needs --journal", file=sys.stderr)
        return 2

    async def main() -> None:
        gateway = FarmGateway(
            workers=args.workers,
            host=args.host,
            port=args.port,
            cache_dir=args.cache_dir,
            max_queue=args.max_queue,
            journal_path=args.journal,
            recover=args.recover,
            wal_fsync=args.wal_fsync,
        )
        await gateway.start()
        host, port = gateway.address
        print(f"mb32-farm: {args.workers} workers, "
              f"listening on {host}:{port}")
        if args.recover:
            print(f"mb32-farm: recovered {len(gateway.jobs)} job(s) "
                  f"from {args.journal}")
        print(f"mb32-farm: port {port}", flush=True)
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as fh:
                fh.write(f"{port}\n")
        # graceful SIGTERM: finish queued/running jobs, then exit
        loop = asyncio.get_running_loop()
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(
                signal.SIGTERM,
                lambda: asyncio.ensure_future(gateway.drain()),
            )
        try:
            await gateway.serve_forever()
        finally:
            await gateway.close()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("mb32-farm: interrupted — shut down cleanly")
        return 0
    print("mb32-farm: drained")
    return 0


def _farm_submit(args) -> int:
    from repro.farm import FarmError

    if args.payload == "-":
        payload = json.load(sys.stdin)
    else:
        with open(args.payload, encoding="utf-8") as fh:
            payload = json.load(fh)
    try:
        with _farm_client(args) as client:
            doc = client.submit(
                args.kind,
                payload,
                cacheable=not args.no_cache,
                wait=args.wait,
                timeout_s=args.timeout,
            )
    except FarmError as exc:
        print(f"mb32-farm: error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(doc, indent=2, sort_keys=True))
    if args.wait and doc.get("state") != "done":
        return 1
    return 0


def _farm_status(args) -> int:
    from repro.farm import FarmError

    try:
        with _farm_client(args) as client:
            if args.job:
                doc = client.status(
                    args.job, wait=args.wait, timeout_s=args.timeout
                )
            else:
                doc = client.farm_status()
    except FarmError as exc:
        print(f"mb32-farm: error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _farm_drain(args) -> int:
    from repro.farm import FarmError

    try:
        with _farm_client(args) as client:
            doc = client.drain()
    except FarmError as exc:
        print(f"mb32-farm: error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _farm_chaos(args) -> int:
    import tempfile

    from repro.farm.chaos import CHAOS_KINDS, run_chaos_campaign

    kinds = CHAOS_KINDS
    if args.kinds:
        kinds = tuple(
            k.strip() for k in args.kinds.split(",") if k.strip()
        )
        unknown = [k for k in kinds if k not in CHAOS_KINDS]
        if unknown:
            print(f"mb32-farm: unknown chaos kind(s) {unknown} "
                  f"(choose from {', '.join(CHAOS_KINDS)})",
                  file=sys.stderr)
            return 2

    cleanup: tempfile.TemporaryDirectory | None = None
    if args.root:
        root = args.root
    else:
        cleanup = tempfile.TemporaryDirectory(prefix="mb32-chaos-")
        root = cleanup.name
    try:
        report = run_chaos_campaign(
            root,
            seed=args.seed,
            jobs=args.jobs,
            faults=args.faults,
            workers=args.workers,
            kinds=kinds,
            gateway_restarts=args.restarts,
            progress=lambda msg: print(f"mb32-farm: {msg}", flush=True),
            collect_timeout_s=args.timeout,
        )
    finally:
        if cleanup is not None:
            cleanup.cleanup()

    print(report.table())
    print(f"mb32-farm: {report.jobs} jobs, "
          f"{report.faults_applied} faults, "
          f"{report.restarts} gateway restart(s), "
          f"{report.cache_quarantined} quarantined cache entr(ies), "
          f"{report.wall_s:.1f}s")
    if args.report:
        payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        if args.report == "-":
            print(payload)
        else:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
            print(f"mb32-farm: wrote {args.report}")
    if report.ok:
        print("mb32-farm: invariant held — every job byte-identical "
              "to the fault-free baseline")
        return 0
    print(f"mb32-farm: INVARIANT VIOLATED — divergent="
          f"{report.divergent} failed={sorted(report.failed)} "
          f"second_divergent={report.second_divergent} "
          f"second_failed={sorted(report.second_failed)}",
          file=sys.stderr)
    return 1


def farm_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mb32-farm",
        description="co-simulation as a service: asyncio job farm with "
                    "content-addressed caching and checkpoint migration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run a gateway (foreground)")
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0 = ephemeral; actual port is printed "
             "and written to --port-file)",
    )
    serve.add_argument(
        "--port-file", metavar="FILE",
        help="write the actually bound port to FILE",
    )
    serve.add_argument(
        "--cache-dir", metavar="DIR",
        help="content-addressed result cache directory (no caching "
             "across restarts without it)",
    )
    serve.add_argument("--max-queue", type=int, default=10_000,
                       help="queue depth beyond which submissions are "
                            "shed with 503")
    serve.add_argument(
        "--journal", metavar="FILE",
        help="append-only write-ahead journal of job submissions and "
             "state transitions (crash recovery)",
    )
    serve.add_argument(
        "--recover", action="store_true",
        help="replay --journal on startup: completed jobs serve from "
             "cache, interrupted jobs resume from their last "
             "checkpoint / completed units",
    )
    serve.add_argument(
        "--wal-fsync", action="store_true",
        help="fsync the journal on every append (power-loss "
             "durability at a per-event fsync cost)",
    )
    serve.set_defaults(func=_farm_serve)

    def _client_flags(p) -> None:
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, required=True)
        p.add_argument("--tenant", default="default")

    submit = sub.add_parser("submit", help="submit one job")
    _client_flags(submit)
    submit.add_argument(
        "kind",
        choices=("simulate", "scenario", "multi_scenario", "sweep",
                 "campaign"),
    )
    submit.add_argument(
        "payload", help='payload JSON file ("-" for stdin)'
    )
    submit.add_argument("--no-cache", action="store_true",
                        help="bypass dedup/cache for this job")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job finishes")
    submit.add_argument("--timeout", type=float, default=None,
                        help="seconds to wait before returning anyway")
    submit.set_defaults(func=_farm_submit)

    status = sub.add_parser(
        "status", help="farm status, or one job's status with --job"
    )
    _client_flags(status)
    status.add_argument("--job", help="job id to inspect")
    status.add_argument("--wait", action="store_true")
    status.add_argument("--timeout", type=float, default=None)
    status.set_defaults(func=_farm_status)

    drain = sub.add_parser(
        "drain", help="finish all jobs, then shut the gateway down"
    )
    _client_flags(drain)
    drain.set_defaults(func=_farm_drain)

    chaos = sub.add_parser(
        "chaos",
        help="seeded deterministic fault campaign against a live farm "
             "(worker kills/stalls, corrupt cache writes, dropped "
             "connections, gateway crash+recover); verifies every job "
             "finishes byte-identical to a fault-free run",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--jobs", type=int, default=200,
                       help="workload size (simulate/sweep/campaign mix)")
    chaos.add_argument("--faults", type=int, default=30,
                       help="total fault events to inject")
    chaos.add_argument("--workers", type=int, default=3)
    chaos.add_argument(
        "--kinds", default=None,
        help="comma-separated fault kinds to enable: worker_kill, "
             "worker_stall, cache_torn_write, cache_bitflip, "
             "conn_drop, conn_truncate, gateway_restart (default all)",
    )
    chaos.add_argument("--restarts", type=int, default=1,
                       help="gateway crash+recover events")
    chaos.add_argument(
        "--root", metavar="DIR", default=None,
        help="scratch directory (default: a fresh temp dir)",
    )
    chaos.add_argument(
        "--report", metavar="FILE", default=None,
        help='write the JSON report to FILE ("-" for stdout)',
    )
    chaos.add_argument("--timeout", type=float, default=600.0,
                       help="per-phase collect deadline in seconds")
    chaos.set_defaults(func=_farm_chaos)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - manual dispatch
    tool = sys.argv[1] if len(sys.argv) > 1 else ""
    mains = {"cc": cc_main, "as": as_main, "run": run_main,
             "objdump": objdump_main, "gdbserver": gdbserver_main,
             "dse": dse_main, "conformance": conformance_main,
             "profile": profile_main, "faultsim": faultsim_main,
             "farm": farm_main}
    sys.exit(mains.get(tool, cc_main)(sys.argv[2:]))
