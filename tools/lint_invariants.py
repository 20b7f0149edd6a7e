#!/usr/bin/env python3
"""Repo-specific invariant linter -- layer 3 of the static-analysis gate.

The clang thread-safety build proves lock contracts and clang-tidy catches
generic bug patterns; this script enforces the invariants that are about
*this* repo's architecture and that no general-purpose tool can know:

  raw-mutex       Concurrency primitives (std::mutex, std::lock_guard,
                  std::scoped_lock, std::unique_lock, std::shared_lock,
                  std::condition_variable[_any], pthread mutexes) may not
                  appear outside src/common/annotations.hpp. Everything
                  locks through the annotated sys::Mutex / sys::MutexLock /
                  sys::CondVar wrappers so the clang Thread Safety Analysis
                  sees every acquisition. (std::once_flag / call_once are
                  fine: they carry no guarded state of their own.)

  jsonl-helpers   JSONL rows are built by svc/jsonl.hpp's Row/field
                  helpers, never by hand. Streaming or appending a string
                  literal that contains a raw JSON key fragment ("\":") is
                  hand-rolled row emission -- it bypasses the escaping and
                  the key-ordering discipline the byte-identity tests pin.

  wall-pairing    The "wall_ms" JSONL key is rendered in exactly one place
                  (src/svc/study_report.cpp provenance block), behind its
                  with_wall switch, so wall-free rows -- the byte-identity
                  currency for wire/journal/merge/stream paths -- never
                  carry a timing.

  signal-handler  A signal handler body may contain nothing but lock-free
                  atomic .store() statements (POSIX XSH 2.4.3
                  async-signal-safety; see src/common/signals.cpp).

  engine-serial   One level of parallelism: the analysis kernels
                  (src/rt/, src/hier/) and the BatchEngine
                  (src/core/analysis_engine.*) may not include
                  common/parallel.hpp. Their scans run serially;
                  par::parallel_for is for fleet-level loops only (svc
                  fleet entries, the bench studies' trials).

  bounded-analysis
                  One bounded schedulability path. Under src/, only src/rt/
                  may call rt::deadline_set, rt::edf_demand or
                  rt::scheduling_points: those enumerations grow with the
                  hyperperiod or exponentially with the task count. The
                  library tests a task set through a budgeted
                  rt::AnalysisContext (ctx.scheduling_points(i) and the
                  other cached methods do not match); the full enumeration
                  survives only as the frozen reference in
                  bench/legacy_kernels.hpp, which is not checked.

  no-upward-include
                  Layers form no cycles. Nothing under src/common, rt,
                  hier, core, gen, io, part, fault, baseline, sim or
                  platform may include svc/ or net/, and src/svc may not
                  include net/. A BatchEngine query never reads the
                  service's fleet or engine cache.

Suppress a finding with a justification comment on the same line or the
line above:  // lint: allow(<rule>) <why>

Usage: lint_invariants.py [PATH...]   (default: src tools tests)
Exits 0 when clean, 1 with one "file:line: [rule] message" per finding.
"""

from __future__ import annotations

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

# Files that ARE the sanctioned implementation of a rule's subject.
RAW_MUTEX_SANCTIONED = {"src/common/annotations.hpp"}
JSONL_SANCTIONED = {"src/svc/jsonl.hpp", "src/svc/jsonl.cpp", "src/svc/rows.cpp"}
WALL_PAIR_SANCTIONED = {"src/svc/study_report.cpp"}

RAW_MUTEX_TOKENS = re.compile(
    r"\bstd::(?:recursive_|timed_|recursive_timed_|shared_)?mutex\b"
    r"|\bstd::(?:lock_guard|scoped_lock|unique_lock|shared_lock)\b"
    r"|\bstd::condition_variable(?:_any)?\b"
    r"|\bpthread_(?:mutex|cond)_"
)

# A string literal holding a raw JSON key fragment, being streamed (<<) or
# appended (+=). fprintf-style whole-document reports (bench_report's JSON
# summary) are a different artifact class and are not row emission.
JSONL_HAND_ROLLED = re.compile(r'(?:<<|\+=)\s*"(?:[^"\\]|\\.)*\\":')

WALL_KEY = re.compile(r'"wall_ms"')

ALLOW = re.compile(r"//\s*lint:\s*allow\((?P<rule>[a-z-]+)\)")

SIGNAL_HANDLER_DEF = re.compile(r'extern\s+"C"\s+void\s+\w+\s*\(\s*int\b[^)]*\)\s*\{')
ATOMIC_STORE_STMT = re.compile(r"^\w+\.store\(.+\)$")

SERIAL_ENGINE = re.compile(r"^src/(?:rt/|hier/|core/analysis_engine\.)")
PARALLEL_INCLUDE = re.compile(r'^\s*#\s*include\s*[<"]common/parallel\.hpp[">]')

UNBOUNDED_ENUMERATION = re.compile(
    r"\brt::(?:deadline_set|edf_demand|scheduling_points)\b")

BELOW_SVC = re.compile(
    r"^src/(?:common|rt|hier|core|gen|io|part|fault|baseline|sim|platform)/")
LAYER_INCLUDE = re.compile(r'^\s*#\s*include\s*[<"](?P<layer>svc|net)/')


def strip_comments(lines: list[str]) -> list[str]:
    """Blank out // and /* */ comment text, preserving line structure."""
    out = []
    in_block = False
    for line in lines:
        result = []
        i = 0
        in_str = False
        while i < len(line):
            ch = line[i]
            if in_block:
                if line.startswith("*/", i):
                    in_block = False
                    i += 2
                else:
                    i += 1
                continue
            if in_str:
                result.append(ch)
                if ch == "\\" and i + 1 < len(line):
                    result.append(line[i + 1])
                    i += 2
                    continue
                if ch == '"':
                    in_str = False
                i += 1
                continue
            if line.startswith("//", i):
                break
            if line.startswith("/*", i):
                in_block = True
                i += 2
                continue
            if ch == '"':
                in_str = True
            result.append(ch)
            i += 1
        out.append("".join(result))
    return out


class Findings:
    def __init__(self) -> None:
        self.items: list[str] = []

    def add(self, path: pathlib.Path, lineno: int, rule: str, msg: str) -> None:
        rel = path.resolve()
        try:
            rel = rel.relative_to(REPO)
        except ValueError:
            pass
        self.items.append(f"{rel}:{lineno}: [{rule}] {msg}")


def allowed(raw: list[str], idx: int, rule: str) -> bool:
    """True when line idx (0-based) carries or follows an allow comment."""
    for line in (raw[idx], raw[idx - 1] if idx > 0 else ""):
        m = ALLOW.search(line)
        if m and m.group("rule") == rule:
            return True
    return False


def rel_key(path: pathlib.Path) -> str:
    try:
        return path.resolve().relative_to(REPO).as_posix()
    except ValueError:
        return path.as_posix()


def check_raw_mutex(path, raw, code, findings):
    if rel_key(path) in RAW_MUTEX_SANCTIONED:
        # Still honor the discipline inside the sanctioned file: its own
        # primitives carry explicit allow comments, so a *new* unannotated
        # primitive there is flagged too.
        pass
    for idx, line in enumerate(code):
        m = RAW_MUTEX_TOKENS.search(line)
        if not m:
            continue
        if allowed(raw, idx, "raw-mutex"):
            continue
        findings.add(
            path, idx + 1, "raw-mutex",
            f"{m.group(0)} outside the annotated wrappers -- use sys::Mutex / "
            "sys::MutexLock / sys::CondVar from common/annotations.hpp so the "
            "clang thread-safety analysis sees this acquisition")


def check_jsonl_helpers(path, raw, code, findings):
    if rel_key(path) in JSONL_SANCTIONED:
        return
    for idx, line in enumerate(raw):
        if not JSONL_HAND_ROLLED.search(line):
            continue
        if allowed(raw, idx, "jsonl-helpers"):
            continue
        findings.add(
            path, idx + 1, "jsonl-helpers",
            "hand-rolled JSON key emission -- build rows with svc/jsonl.hpp "
            "Row::field / svc/rows.hpp so escaping and key order stay uniform")


def check_wall_pairing(path, raw, code, findings):
    if rel_key(path) in WALL_PAIR_SANCTIONED:
        return
    for idx, line in enumerate(raw):
        if not WALL_KEY.search(line) or allowed(raw, idx, "wall-pairing"):
            continue
        findings.add(
            path, idx + 1, "wall-pairing",
            'the "wall_ms" key may only be rendered by the provenance block '
            "in src/svc/study_report.cpp -- route new rows through it")


def check_signal_handler(path, raw, code, findings):
    text = "\n".join(code)
    for m in SIGNAL_HANDLER_DEF.finditer(text):
        start = m.end()  # position just past the opening brace
        depth = 1
        pos = start
        while pos < len(text) and depth:
            if text[pos] == "{":
                depth += 1
            elif text[pos] == "}":
                depth -= 1
            pos += 1
        body = text[start:pos - 1]
        body_line0 = text.count("\n", 0, start)
        for off, stmt_line in enumerate(body.split("\n")):
            stmt = stmt_line.strip().rstrip(";").strip()
            if not stmt:
                continue
            idx = body_line0 + off
            if ATOMIC_STORE_STMT.match(stmt):
                continue
            if allowed(raw, idx, "signal-handler"):
                continue
            findings.add(
                path, idx + 1, "signal-handler",
                f"'{stmt}' in a signal handler -- handlers may only store "
                "into lock-free atomics (POSIX XSH 2.4.3 async-signal-"
                "safety; see src/common/signals.cpp)")


def check_engine_serial(path, raw, code, findings):
    if not SERIAL_ENGINE.match(rel_key(path)):
        return
    for idx, line in enumerate(code):
        if not PARALLEL_INCLUDE.match(line):
            continue
        if allowed(raw, idx, "engine-serial"):
            continue
        findings.add(
            path, idx + 1, "engine-serial",
            "the analysis kernels and BatchEngine scan serially -- "
            "parallelize across fleet entries (svc), not inside one "
            "system's analysis")


def check_bounded_analysis(path, raw, code, findings):
    key = rel_key(path)
    if not key.startswith("src/") or key.startswith("src/rt/"):
        return
    for idx, line in enumerate(code):
        m = UNBOUNDED_ENUMERATION.search(line)
        if not m:
            continue
        if allowed(raw, idx, "bounded-analysis"):
            continue
        findings.add(
            path, idx + 1, "bounded-analysis",
            f"{m.group(0)} enumerates the full point or deadline set -- test "
            "through a budgeted rt::AnalysisContext (hier::schedulable, "
            "analysis::BatchEngine) so hostile task sets get the "
            "conservative verdict, not an out-of-memory kill")


def check_no_upward_include(path, raw, code, findings):
    key = rel_key(path)
    if BELOW_SVC.match(key):
        banned = {"svc", "net"}
    elif key.startswith("src/svc/"):
        banned = {"net"}
    else:
        return
    for idx, line in enumerate(code):
        m = LAYER_INCLUDE.match(line)
        if not m or m.group("layer") not in banned:
            continue
        if allowed(raw, idx, "no-upward-include"):
            continue
        findings.add(
            path, idx + 1, "no-upward-include",
            f"{key.split('/')[1]}/ includes {m.group('layer')}/ -- a layer "
            "may not include the layers above it (layers form no cycles)")


CHECKS = [check_raw_mutex, check_jsonl_helpers, check_wall_pairing,
          check_signal_handler, check_engine_serial, check_bounded_analysis,
          check_no_upward_include]
EXTENSIONS = {".cpp", ".hpp", ".cc", ".h"}


def lint_file(path: pathlib.Path, findings: Findings) -> None:
    raw = path.read_text(encoding="utf-8", errors="replace").splitlines()
    code = strip_comments(raw)
    for check in CHECKS:
        check(path, raw, code, findings)


def collect(paths: list[str]) -> list[pathlib.Path]:
    files = []
    for arg in paths:
        p = pathlib.Path(arg)
        if p.is_dir():
            files.extend(sorted(q for q in p.rglob("*") if q.suffix in EXTENSIONS))
        elif p.suffix in EXTENSIONS:
            files.append(p)
    return files


def main(argv: list[str]) -> int:
    roots = argv[1:] or [str(REPO / "src"), str(REPO / "tools"),
                         str(REPO / "tests")]
    findings = Findings()
    files = collect(roots)
    if not files:
        print("lint_invariants: no input files", file=sys.stderr)
        return 2
    for path in files:
        lint_file(path, findings)
    for item in findings.items:
        print(item)
    if findings.items:
        print(f"lint_invariants: {len(findings.items)} finding(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"lint_invariants: clean ({len(files)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
