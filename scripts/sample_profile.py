#!/usr/bin/env python3
"""Sampling profile of one ``repro`` CLI command, run in-process.

    python scripts/sample_profile.py [options] -- simulate --swf t.swf --strategy PA-0.5

The command runs under a process-local CPU-time sampler
(``signal.setitimer(ITIMER_PROF)``): every millisecond of CPU time, or
every scheduler tick if that is longer, the handler records the Python
stack.  Unlike cProfile, whose per-call hook charges every function
call a fixed overhead (and so inflates call-heavy code such as record
constructors), a sample costs the program nothing between ticks, so
the shares track where the time actually goes.  The report lists:

* ``self``: functions by the share of samples they were executing;
* ``inclusive``: functions by the share of samples they were on the stack;
* ``lines``: the executing source lines;
* ``constructors``: for samples inside a dataclass-generated
  ``__init__`` or a ``__post_init__``, the line that built the record
  and the record's class.

``--only MODULE.FUNCTION`` (e.g. ``repro.cli.run_sharded``) counts only
the samples taken while that function is on the stack, so argument
parsing, input loading and other set-up stay out of the shares.  The
name is imported and matched by code object, so a function re-exported
under another module's name works too.

Shares are percentages of the counted samples; the header also gives
the CPU seconds the samples cover.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib
import signal
import sys
import time
from collections import Counter
from pathlib import Path

#: CPU time between timer signals.  The kernel delivers them no more
#: often than its scheduler tick, whatever is asked for.
INTERVAL_S = 0.001

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def resolve_code(dotted: str):
    """The code object of the function named ``module.attr[.attr...]``."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            target = getattr(target, attr)
        target = getattr(target, "__wrapped__", target)
        code = getattr(target, "__code__", None)
        if code is None:
            raise SystemExit(f"sample_profile: {dotted} is not a Python function")
        return code
    raise SystemExit(f"sample_profile: cannot import {dotted}")


def _is_generated_init(code) -> bool:
    # dataclasses compiles its __init__ from source text, so the code
    # object has no real file behind it.
    return code.co_name == "__init__" and code.co_filename.startswith("<")


class Sampler:
    """Collects stack samples on ``SIGPROF``."""

    def __init__(self, interval_s: float, only=None):
        self.interval_s = interval_s
        self.only = only
        self.total = 0
        self.counted = 0
        self.self_counts: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.lines: Counter = Counter()
        self.constructors: Counter = Counter()
        #: Class name per dataclass-generated ``__init__`` code object
        #: seen; they all share one qualname and have no real file.
        self.owners: dict = {}
        self.cpu_s = 0.0
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        self.cpu_s = -time.process_time()
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        self.cpu_s += time.process_time()
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        self.total += 1
        stack = []
        while frame is not None:
            stack.append(frame)
            frame = frame.f_back
        codes = [f.f_code for f in stack]
        if self.only is not None and self.only not in codes:
            return
        self.counted += 1
        top = stack[0]
        self.self_counts[top.f_code] += 1
        for code in set(codes):
            self.inclusive[code] += 1
        self.lines[(top.f_code, top.f_lineno)] += 1
        for depth, f in enumerate(stack):
            code = f.f_code
            if code.co_name == "__post_init__":
                owner = type(f.f_locals.get("self")).__name__
                depth += 1  # the generated __init__ that called it
            elif _is_generated_init(code):
                first = code.co_varnames[0] if code.co_varnames else "self"
                owner = type(f.f_locals.get(first)).__name__
                self.owners.setdefault(code, owner)
            else:
                continue
            if depth + 1 < len(stack):
                site = stack[depth + 1]
                self.constructors[(owner, site.f_code, site.f_lineno)] += 1
            break

    def label(self, code) -> str:
        owner = self.owners.get(code)
        if owner is not None:
            return f"{owner}.__init__ (dataclass-generated)"
        return f"{code.co_qualname} ({Path(code.co_filename).name}:{code.co_firstlineno})"

    def where(self, code, line) -> str:
        owner = self.owners.get(code)
        if owner is not None:
            return f"{owner}.__init__ (dataclass-generated)"
        line = "?" if line is None else line
        return f"{Path(code.co_filename).name}:{line} in {code.co_qualname}"


def _share(count: int, total: int) -> str:
    return f"{100.0 * count / total:6.2f}%"


def report(sampler: Sampler, top: int, out=None) -> None:
    """Print the report to ``out`` (default: the current standard output)."""
    total = sampler.counted
    scope = "all samples" if sampler.only is None else f"samples under {sampler.label(sampler.only)}"
    print(
        f"# {sampler.total} samples over {sampler.cpu_s:.2f} s of CPU "
        f"(timer every {sampler.interval_s * 1e3:g} ms); {total} counted ({scope})",
        file=out,
    )
    sections = (
        ("self", [(sampler.label(c), n) for c, n in sampler.self_counts.most_common(top)]),
        (
            "inclusive",
            [(sampler.label(c), n) for c, n in sampler.inclusive.most_common(top)],
        ),
        (
            "lines",
            [(sampler.where(c, line), n) for (c, line), n in sampler.lines.most_common(top)],
        ),
        (
            "constructors",
            [
                (f"{owner} built at {sampler.where(c, line)}", n)
                for (owner, c, line), n in sampler.constructors.most_common(top)
            ],
        ),
    )
    for title, rows in sections:
        print(f"\n## {title}", file=out)
        for label, count in rows:
            print(f"{_share(count, total)} {count:8d}  {label}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        usage="%(prog)s [options] -- COMMAND [ARGS...]",
    )
    parser.add_argument(
        "--only", metavar="MODULE.FUNCTION", help="count only samples under this function"
    )
    parser.add_argument("--top", type=int, default=25, help="rows per section")
    parser.add_argument(
        "--output", metavar="PATH", help="write the report here (default: stdout)"
    )
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- repro CLI arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no repro command given")

    import repro.cli

    only = resolve_code(args.only) if args.only else None
    sampler = Sampler(INTERVAL_S, only)
    sampler.start()
    try:
        code = repro.cli.main(command)
    finally:
        sampler.stop()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            report(sampler, args.top, handle)
    else:
        report(sampler, args.top)
    return code


if __name__ == "__main__":
    sys.exit(main())
