#!/usr/bin/env python3
"""Concurrency/determinism invariant lint for the gnn4ip tree.

The codebase promises bit-identical verdicts for any worker count,
consumer count, shard count, and batch split (docs/ARCHITECTURE.md,
"Determinism invariants"), and routes every lock through the annotated
wrappers in src/util/thread_annotations.h so Clang's capability
analysis and the runtime lock-order validator both see it. Those are
*structural* properties — a single stray primitive or accumulation loop
silently re-opens the hole — so CI greps for the shapes that would
break them:

  raw-lock        std::mutex / std::shared_mutex / std::condition_variable
                  / std::lock_guard / std::unique_lock / std::shared_lock
                  / std::scoped_lock anywhere in src/ outside
                  src/util/thread_annotations.h. Everything must go
                  through util::Mutex/SharedMutex/CondVar and the scoped
                  guards, or it is invisible to -Wthread-safety and the
                  lock-order validator.

  fp-accum        Floating-point accumulation (`x += ...` / `x -= ...`
                  on a declared float/double, `acc[j] += ...` on a
                  declared float/double C array or std::array<float|
                  double, N>, or std::accumulate / std::reduce) in
                  src/core or src/audit outside cosine_kernels.*. FP
                  reduction order is the determinism contract's hot
                  surface; it is centralized in the kernel file where
                  the ascending-k fold order is pinned and tested.
                  Calls to tensor::dot( and .frobenius_norm( count too:
                  they fold in double inside src/tensor, so a score
                  built from them drifts from cosine_cell's bits.

  unordered-iter  Range-for over a declared unordered container in
                  src/core or src/audit. Iteration order of
                  unordered_{map,set} is unspecified; an order-dependent
                  fold over one breaks run-to-run determinism.

  detach-async    std::thread::detach() or std::async anywhere in src/.
                  Detached threads outlive quiesce/drain guarantees and
                  std::async's policy is implementation-defined; all
                  parallelism goes through util::ThreadPool.

  raw-socket      socket(2)-family syscalls or networking headers
                  (<sys/socket.h>, <netinet/*>, <arpa/*>, <poll.h>, ...)
                  anywhere in src/ outside src/net/. The wire protocol's
                  framing, typed-error taxonomy, and EOF/timeout
                  semantics live behind net::Socket — a stray sendmsg or
                  poll elsewhere bypasses the one seam the robustness
                  tests audit. Detected as unambiguous syscall names
                  (socket, setsockopt, recvmsg, ...), `::`-qualified
                  forms of the short ones (::connect, ::send, ::poll,
                  ...), and the header includes no caller can do
                  without.

  serving-tape    tensor::Tape or #include "tensor/tape.h" in src/audit or
                  src/core. The autograd tape serves training only: the
                  serving path embeds through the const, tape-free
                  Hw2Vec::embed_inference, which records no backward
                  state and keeps no scratch past the call.

Findings are suppressed by a waiver on the offending line or the line
directly above it, with a mandatory reason:

    // lint:allow(<rule>): <why this specific site is order-free/safe>

Exit status: 0 when clean, 1 with findings (one `file:line: [rule]`
line each).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

RAW_LOCK_RE = re.compile(
    r"std::(?:recursive_|timed_|recursive_timed_)?mutex\b"
    r"|std::shared_(?:timed_)?mutex\b"
    r"|std::condition_variable(?:_any)?\b"
    r"|std::(?:lock_guard|unique_lock|shared_lock|scoped_lock)\b"
)
DETACH_RE = re.compile(r"\.\s*detach\s*\(|std::async\b")
# The socket(2) family, split by ambiguity. Long names cannot collide
# with project identifiers, so the bare call form is enough; the short
# ones (connect/send/poll/...) shadow ordinary method and factory names
# everywhere, so only the globally-qualified `::name(` form counts —
# bare calls are still caught through the header includes below, which
# no syscall user can do without.
RAW_SOCKET_UNAMBIGUOUS = (
    "socket|socketpair|accept4|setsockopt|getsockopt|getsockname"
    "|getpeername|recvmsg|sendmsg|recvfrom|sendto|writev|readv"
    "|getaddrinfo|freeaddrinfo|inet_pton|inet_ntop"
)
RAW_SOCKET_QUALIFIED_ONLY = "connect|bind|listen|accept|send|recv|poll|shutdown"
RAW_SOCKET_RE = re.compile(
    rf"(?:^|[^\w:.>])(?:{RAW_SOCKET_UNAMBIGUOUS})\s*\("
    rf"|(?<![\w>)])::\s*(?:{RAW_SOCKET_UNAMBIGUOUS}|{RAW_SOCKET_QUALIFIED_ONLY})\s*\("
    r"|#\s*include\s*<(?:sys/socket\.h|sys/un\.h|sys/uio\.h|netinet/[\w/.]+"
    r"|arpa/[\w/.]+|netdb\.h|poll\.h)>"
)
ACCUM_CALL_RE = re.compile(
    r"std::(?:accumulate|reduce)\b"
    r"|\btensor::dot\s*\(|\.\s*frobenius_norm\s*\("
)
# A float/double scalar or C array (`float acc[8] = {}`), or a
# std::array of them (`std::array<float, 8> acc{}`): the names whose
# `+=`/`-=` is an accumulation. Group 1 or group 2 holds the name.
FP_DECL_RE = re.compile(
    r"\b(?:float|double)\s+(\w+)\s*(?:\[[^\]]*\]\s*)*(?:=|\{|;)"
    r"|\bstd::array\s*<\s*(?:float|double)\s*,[^<>;]*>\s+(\w+)\s*(?:=|\{|;)"
)
# Subscripts between an accumulator's name and its `+=` (one level of
# nesting, as in `acc[idx[j]] += x`).
SUBSCRIPTS = r"(?:\s*\[(?:[^\[\]]|\[[^\[\]]*\])*\])*"
UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s+(\w+)"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*:\s*(\w+)\s*\)")
TAPE_RE = re.compile(r'\btensor::Tape\b|#\s*include\s*"tensor/tape\.h"')
WAIVER_RE = re.compile(r"//\s*lint:allow\(([\w-]+)\)\s*:\s*(\S.*)")

KERNEL_EXEMPT = ("cosine_kernels",)
DETERMINISM_DIRS = ("core", "audit")


def strip_comments(text: str) -> str:
    """Blank out // and /* */ comments, preserving line structure."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif ch == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            chunk = text[i : j + 2]
            out.append("".join(c if c == "\n" else " " for c in chunk))
            i = j + 2
        elif ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append(text[i : j + 1])
            i = j + 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def waivers_for(raw_lines: list[str]) -> dict[int, str]:
    """Map 0-based line number -> waived rule (self or next line)."""
    waived: dict[int, str] = {}
    for idx, line in enumerate(raw_lines):
        m = WAIVER_RE.search(line)
        if not m:
            continue
        rule = m.group(1)
        # A waiver excuses its own line and, when it is a whole-line
        # comment, the first following line (comments stack above code).
        waived[idx] = rule
        if line.lstrip().startswith("//"):
            nxt = idx + 1
            while nxt < len(raw_lines) and raw_lines[nxt].lstrip().startswith("//"):
                nxt += 1
            waived[nxt] = rule
    return waived


class Linter:
    """Scans `<root>/src`; parameterized so the self-test can point it
    at synthetic trees (scripts/lint_selftest.py)."""

    def __init__(self, root: Path = ROOT) -> None:
        self.root = root
        self.src = root / "src"
        self.findings: list[tuple[Path, int, str, str]] = []
        self.waived_count = 0

    def report(
        self,
        path: Path,
        lineno: int,
        rule: str,
        message: str,
        waived: dict[int, str],
    ) -> None:
        if waived.get(lineno) == rule:
            self.waived_count += 1
            return
        self.findings.append((path, lineno + 1, rule, message))

    def lint_file(self, path: Path) -> None:
        raw = path.read_text(encoding="utf-8")
        raw_lines = raw.splitlines()
        code_lines = strip_comments(raw).splitlines()
        waived = waivers_for(raw_lines)
        rel = path.relative_to(self.root)
        in_net = rel.parts[:2] == ("src", "net")
        on_serving_path = rel.parts[:2] in (("src", "audit"), ("src", "core"))
        in_determinism_scope = (
            path.parent.name in DETERMINISM_DIRS
            and not path.name.startswith(KERNEL_EXEMPT)
        )

        is_wrapper_header = rel == Path("src/util/thread_annotations.h")
        code_text = "\n".join(code_lines)
        # Members iterated in a .cpp are declared in its header — scan
        # the companion header's declarations too, or every guarded
        # member container is invisible to the rule.
        decl_text = code_text
        if path.suffix == ".cpp":
            header = path.with_suffix(".h")
            if header.is_file():
                decl_text += "\n" + strip_comments(
                    header.read_text(encoding="utf-8")
                )
        fp_names = (
            {name for pair in FP_DECL_RE.findall(decl_text) for name in pair if name}
            if in_determinism_scope
            else set()
        )
        unordered_names = (
            set(UNORDERED_DECL_RE.findall(decl_text)) if in_determinism_scope else set()
        )
        fp_accum_re = (
            re.compile(
                r"\b(" + "|".join(map(re.escape, sorted(fp_names))) + r")"
                + SUBSCRIPTS + r"\s*[+-]="
            )
            if fp_names
            else None
        )

        for idx, line in enumerate(code_lines):
            if not is_wrapper_header and RAW_LOCK_RE.search(line):
                self.report(
                    path, idx, "raw-lock",
                    "raw standard-library lock primitive; use util::Mutex/"
                    "SharedMutex/CondVar + scoped guards from "
                    "src/util/thread_annotations.h",
                    waived,
                )
            if DETACH_RE.search(line):
                self.report(
                    path, idx, "detach-async",
                    "detached thread / std::async; all parallelism goes "
                    "through util::ThreadPool",
                    waived,
                )
            if not in_net and RAW_SOCKET_RE.search(line):
                self.report(
                    path, idx, "raw-socket",
                    "socket(2)-family syscall or networking header outside "
                    "src/net/; all wire traffic goes through net::Socket so "
                    "framing and typed-error semantics stay in one seam",
                    waived,
                )
            if on_serving_path and TAPE_RE.search(line):
                self.report(
                    path, idx, "serving-tape",
                    "autograd tape on the serving path; embed through the "
                    "tape-free Hw2Vec::embed_inference",
                    waived,
                )
            if in_determinism_scope:
                if ACCUM_CALL_RE.search(line) or (
                    fp_accum_re and fp_accum_re.search(line)
                ):
                    self.report(
                        path, idx, "fp-accum",
                        "floating-point accumulation outside the kernel "
                        "files; fold order is the determinism contract",
                        waived,
                    )
                m = RANGE_FOR_RE.search(line)
                if m and m.group(1) in unordered_names:
                    self.report(
                        path, idx, "unordered-iter",
                        f"range-for over unordered container '{m.group(1)}'; "
                        "iteration order is unspecified",
                        waived,
                    )

    def run(self) -> int:
        files = sorted(
            p for p in self.src.rglob("*") if p.suffix in (".h", ".cpp") and p.is_file()
        )
        for path in files:
            self.lint_file(path)
        if self.findings:
            for path, lineno, rule, message in self.findings:
                print(f"{path.relative_to(self.root)}:{lineno}: [{rule}] {message}")
            print(f"lint_invariants: {len(self.findings)} finding(s)")
            return 1
        print(
            f"lint_invariants: OK ({len(files)} files, "
            f"{self.waived_count} waiver(s) honored)"
        )
        return 0


if __name__ == "__main__":
    sys.exit(Linter().run())
