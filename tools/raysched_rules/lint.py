"""RS-L: thread, I/O, header and unit-type hygiene rules.

See docs/STATIC_ANALYSIS.md ("Rule index") for what each rule enforces
and why.
"""

import concurrent.futures
import os
import re
import subprocess

RULES = {
    "RS-L2": "threads: raw threading primitive outside src/sim/thread_pool.* "
             "or raw lock primitive outside src/util/sync.hpp",
    "RS-L3": "silent-lib: stdout/stderr write from library code",
    "RS-L4": "pragma-once: header missing #pragma once before code",
    "RS-L5": "self-contained-headers: header does not compile standalone",
    "RS-L6": "banned-functions: overflow-prone or error-swallowing call",
    "RS-L7": "unit-params: raw double parameter with a unit-bearing name "
             "in a public core/model header",
    "RS-L8": "db-conversion: 10^(x/10) written outside src/util/units.hpp",
    "RS-L9": "unit-brace-init: unit strong type brace-initialized instead "
             "of using the explicit constructor or a factory",
}

HEADER_EXTS = (".hpp", ".h")

THREAD_PATTERNS = [
    (re.compile(r"std::thread\b"), "std::thread"),
    (re.compile(r"std::jthread\b"), "std::jthread"),
    (re.compile(r"std::async\b"), "std::async"),
    (re.compile(r"#\s*include\s*<future>"), "<future>"),
]
# Raw lock primitives bypass the annotated util::Mutex/MutexLock/CondVar
# wrappers, so the Clang thread-safety analysis cannot see them.
LOCK_PATTERNS = [
    (re.compile(r"std::(recursive_|timed_|recursive_timed_|shared_)?mutex\b"),
     "raw std mutex type; use util::Mutex (src/util/sync.hpp)"),
    (re.compile(r"std::condition_variable(_any)?\b"),
     "raw std::condition_variable; use util::CondVar (src/util/sync.hpp)"),
    (re.compile(r"std::(lock_guard|unique_lock|scoped_lock|shared_lock)\b"),
     "raw std lock holder; use util::MutexLock (src/util/sync.hpp)"),
    (re.compile(r"#\s*include\s*<(mutex|shared_mutex|condition_variable)>"),
     "raw lock header; include util/sync.hpp instead"),
]
IO_PATTERNS = [
    (re.compile(r"#\s*include\s*<iostream>"), "<iostream>"),
    (re.compile(r"std::(cout|cerr|clog)\b"), "std::cout/cerr/clog"),
    (re.compile(r"(?<![\w.:])f?printf\s*\("), "printf family"),
]
BANNED_PATTERNS = [
    (re.compile(r"(?<![\w.:])(gets|sprintf|strcpy|strcat|tmpnam"
                r"|atoi|atof|atol|setjmp|longjmp)\s*\("),
     "banned function"),
]
# RS-L7: a `double` parameter (after '(' or ',') with a unit-bearing name.
# The trailing [,)=] keeps members (`double beta_min = 0.5;`) and
# accessors (`double beta()`) out.
UNIT_PARAM_NAMES = (
    r"q|prob|probs|probability|gain|gains|beta|betas|db|\w+_db")
UNIT_PARAM_PATTERNS = [
    (re.compile(
        rf"(?:^|[(,])\s*(?:const\s+)?double\s+({UNIT_PARAM_NAMES})\s*[,)=]"),
     "raw double parameter with unit-bearing name; use the strong types "
     "from util/units.hpp"),
]
DB_CONVERSION_PATTERNS = [
    (re.compile(r"(?<![\w.:])(?:std::)?pow\s*\(\s*10(?:\.0*)?\s*,"),
     "pow(10, ...) dB conversion; route through units::to_linear/to_db"),
    (re.compile(r"(?<![\w.:])(?:std::)?exp10\s*\("),
     "exp10() dB conversion; route through units::to_linear/to_db"),
]
UNIT_BRACE_PATTERNS = [
    (re.compile(r"(?<!class )(?<!struct )\b(?:units::)?"
                r"(Probability|LinearGain|Decibel|Power|Distance|Threshold"
                r"|Rate)\s*\{(?!\})"),
     "brace-initialized unit type; use the explicit paren constructor or "
     "a checked()/clamped()/from_db factory"),
]

# (rule, patterns, exempt files), applied line-wise to all of src/.
SRC_PATTERN_RULES = [
    ("RS-L2", THREAD_PATTERNS,
     ("src/sim/thread_pool.hpp", "src/sim/thread_pool.cpp")),
    ("RS-L2", LOCK_PATTERNS, ("src/util/sync.hpp",)),
    ("RS-L3", IO_PATTERNS, ()),
    ("RS-L8", DB_CONVERSION_PATTERNS, ("src/util/units.hpp",)),
    ("RS-L9", UNIT_BRACE_PATTERNS, ()),
]


def check_pragma_once(f, emit):
    for _, code in sorted(f.code.items()):
        stripped = code.strip()
        if not stripped:
            continue
        if not re.match(r"#\s*pragma\s+once\b", stripped):
            emit("RS-L4", f.path, 0, "first non-comment line must be "
                 f"#pragma once (found {stripped[:40]!r})")
        return
    emit("RS-L4", f.path, 0, "header has no code at all")


def check_self_contained(tree, headers, emit):
    """RS-L5: each header compiles as a one-line TU with -fsyntax-only."""
    include_dir = os.path.join(tree.root, "src")

    def compile_one(path):
        rel = os.path.relpath(os.path.join(tree.root, path), include_dir)
        return path, subprocess.run(
            [tree.compiler, "-std=c++20", "-x", "c++", "-fsyntax-only",
             "-I", include_dir, "-"], input=f'#include "{rel}"\n',
            capture_output=True, text=True)

    with concurrent.futures.ThreadPoolExecutor(os.cpu_count()) as pool:
        for path, proc in pool.map(compile_one, headers):
            if proc.returncode != 0:
                first = (proc.stderr.strip().splitlines() or ["<no output>"])
                emit("RS-L5", path, 0, first[0])


def check(tree, emit):
    headers = []
    for f in tree.files.values():
        for lineno, hint in f.grep(BANNED_PATTERNS):
            emit("RS-L6", f.path, lineno, hint)
        if not f.path.startswith("src/"):
            continue
        for rule, patterns, exempt in SRC_PATTERN_RULES:
            if f.path not in exempt:
                for lineno, hint in f.grep(patterns):
                    emit(rule, f.path, lineno, hint)
        if not f.path.endswith(HEADER_EXTS):
            continue
        headers.append(f.path)
        check_pragma_once(f, emit)
        if (f.path.startswith(("src/core/", "src/model/"))
                or f.path == "src/algorithms/queueing.hpp"):
            for lineno, hint in f.grep(UNIT_PARAM_PATTERNS):
                emit("RS-L7", f.path, lineno, hint)
    if tree.compiler:
        check_self_contained(tree, headers, emit)
