"""RS-D: determinism rules (RNG sources, wall clocks, executor-body shared
writes, mutable static locals, unordered iteration into accumulations).

See docs/STATIC_ANALYSIS.md ("Rule index") for what each rule enforces
and why.
"""

import re

RULES = {
    "RS-D1": "rng-source: platform RNG, entropy or time() seeding outside "
             "src/util/rng.hpp",
    "RS-D2": "wall-clock: clock read outside a whitelisted timing site",
    "RS-D3": "shared-write: parallel body writes captured shared state "
             "without a synchronized publish",
    "RS-D4": "static-local: function-local mutable static in library code",
    "RS-D5": "unordered-iter: unordered-container iteration feeding an "
             "accumulation in core/algorithms",
}

RNG_EXEMPT = "src/util/rng.hpp"
# RS-D2 whitelist: files whose clock reads are policy-only (deadlines,
# reporting), never result-bearing. Adding a file here is a review event.
CLOCK_WHITELIST = {
    "src/sim/engine.cpp",       # SweepClock: deadline/timeout policy only
}

TIME_CALL_RE = re.compile(r"(?<![\w.])time\s*\(\s*(NULL|nullptr|0)?\s*\)")
RNG_PATTERNS = [
    (re.compile(r"std::(mt19937|minstd_rand|default_random_engine|ranlux"
                r"|knuth_b\b)"), "std <random> engine"),
    (re.compile(r"std::random_device"), "std::random_device"),
    (re.compile(r"(?<![\w.])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"#\s*include\s*<random>"), "<random>"),
    (TIME_CALL_RE, "time()"),
]
CLOCK_PATTERNS = [
    (re.compile(r"std::chrono::(system|steady|high_resolution)_clock"
                r"\s*::\s*now\s*\("), "std::chrono clock ::now()"),
    (TIME_CALL_RE, "time()"),
    (re.compile(r"(?<![\w.])clock\s*\(\s*\)"), "clock()"),
]

# RS-D3: calls that hand a body to the executor.
EXECUTOR_CALL_RE = re.compile(
    r"(parallel_for\s*\(|\.\s*submit\s*\(|->\s*submit\s*\()")
LAMBDA_START_RE = re.compile(r"\[(?P<captures>[^\]]*)\]\s*(\([^)]*\))?\s*\{")
NAMED_LAMBDA_RE = re.compile(
    r"(?:auto|const\s+auto)\s+(?P<name>\w+)\s*=\s*\[(?P<captures>[^\]]*)\]")
# Writes: (compound) assignment to a name or a member chain rooted at it,
# increments, and mutating method calls.
WRITE_ASSIGN_RE = re.compile(
    r"(?<![\w.>])(?P<name>\w+)(?:\.\w+|->\w+)*\s*"
    r"(?:=(?!=)|\+=|-=|\*=|/=|%=|\|=|&=|\^=|<<=|>>=)")
WRITE_INCDEC_RE = re.compile(
    r"(?:\+\+|--)\s*(?P<pre>\w+)|(?<![\w.>])(?P<post>\w+)\s*(?:\+\+|--)")
WRITE_METHOD_RE = re.compile(
    r"(?<![\w.>])(?P<name>\w+)(?:\.\w+|->\w+)*\s*\.\s*"
    r"(?:push_back|emplace_back|emplace|insert|erase|clear|resize|assign"
    r"|pop_back|swap|store)\s*\(")
LOCAL_DECL_RE = re.compile(
    r"^\s*(?:const\s+)?(?:[\w:<>,\s*&]+?)\s+(?P<name>\w+)\s*(?:=|\{|\(|;)")
SYNC_PUBLISH_RE = re.compile(r"util::MutexLock\b|MutexLock\s+\w+\s*\(")

# RS-D4: an indented (function-local) `static` that is not const/constexpr.
STATIC_LOCAL_RE = re.compile(r"^\s+static\s+(?!const\b|constexpr\b)")

# RS-D5: a range-for over a name declared as an unordered container in the
# file, with an accumulation within the next ten lines.
UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>"
    r"(?:\s*[&*]\s*|\s+)(?P<name>\w+)")
RANGE_FOR_RE = re.compile(
    r"for\s*\(\s*(?:const\s+)?[\w:<>,&\s]+?\s*[:&\s]\s*\w*\s*:\s*"
    r"(?P<cont>\w+)\s*\)")
ACCUM_RE = re.compile(r"\+=|\b(?:sum|total|acc|accum)\w*\s*=(?!=)")


def extract_block(code, start_lineno, open_col):
    """Returns (lines, linenos) of the {}-balanced block whose opening
    brace is at (start_lineno, open_col)."""
    depth = 0
    lines, linenos = [], []
    for lineno in sorted(k for k in code if k >= start_lineno):
        text = code[lineno]
        if lineno == start_lineno:
            text = text[open_col:]
        for idx, ch in enumerate(text):
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    lines.append(text[:idx])
                    linenos.append(lineno)
                    return lines, linenos
        lines.append(text)
        linenos.append(lineno)
        if len(lines) > 400:  # runaway guard: unbalanced braces
            break
    return lines, linenos


def body_writes(path, body, linenos, captures, call_lineno, emit):
    """RS-D3 on one executor body: writes to names that are neither body
    locals nor by-value captures. A util::MutexLock marks the rest of the
    body as a synchronized publish."""
    by_value = set()
    by_ref_all = False
    captures_this = False
    for cap in captures.split(","):
        cap = cap.strip()
        if cap == "&":
            by_ref_all = True
        elif cap in ("this", "*this"):
            captures_this = True
        elif cap and not cap.startswith("&"):
            by_value.add(cap.split("=")[0].strip())
    locals_seen = set()
    synchronized = False
    for text, lineno in zip(body, linenos):
        if SYNC_PUBLISH_RE.search(text):
            synchronized = True
        m = LOCAL_DECL_RE.match(text)
        if m and "=" not in text.split(m.group("name"))[0]:
            locals_seen.add(m.group("name"))
        if synchronized:
            continue
        names = {m.group("name") for m in WRITE_ASSIGN_RE.finditer(text)}
        names |= {m.group("pre") or m.group("post")
                  for m in WRITE_INCDEC_RE.finditer(text)}
        names |= {m.group("name") for m in WRITE_METHOD_RE.finditer(text)}
        for name in sorted(names - locals_seen - by_value):
            member = name.endswith("_") and captures_this
            if member or by_ref_all or f"&{name}" in captures:
                # The allow may sit on the executor call line.
                emit("RS-D3", path, lineno,
                     f"executor body writes shared '{name}' without a "
                     "synchronized publish (own the slot or lock a "
                     "util::MutexLock before writing)",
                     allow_at=(call_lineno, lineno))


def check_parallel_bodies(path, code, emit):
    named = {}  # lambda name -> (captures, definition lineno)
    for lineno in sorted(code):
        m = NAMED_LAMBDA_RE.search(code[lineno])
        if m:
            named[m.group("name")] = (m.group("captures"), lineno)
    for lineno in sorted(code):
        text = code[lineno]
        call = EXECUTOR_CALL_RE.search(text)
        if not call:
            continue
        # An inline lambda on the call line or one of the next two.
        lam, lam_lineno = LAMBDA_START_RE.search(text, call.end()), lineno
        for probe in (lineno + 1, lineno + 2):
            if not lam and probe in code:
                lam, lam_lineno = LAMBDA_START_RE.search(code[probe]), probe
        captures = lam and lam.group("captures")
        if not lam:
            # A named lambda passed by identifier: analyze its definition.
            arg = re.match(r"\s*(\w+)", text[call.end():])
            if not arg or arg.group(1) not in named:
                continue
            captures, lam_lineno = named[arg.group(1)]
            lam = LAMBDA_START_RE.search(code[lam_lineno])
            if not lam:
                continue
        body, linenos = extract_block(code, lam_lineno, lam.end() - 1)
        body_writes(path, body, linenos, captures, lineno, emit)


def check_unordered_iteration(path, code, emit):
    unordered = {m.group("name") for text in code.values()
                 for m in UNORDERED_DECL_RE.finditer(text)}
    linenos = sorted(code)
    for i, lineno in enumerate(linenos):
        m = RANGE_FOR_RE.search(code[lineno])
        if not unordered or not m or m.group("cont") not in unordered:
            continue
        if any(ACCUM_RE.search(code[n]) for n in linenos[i:i + 10]):
            emit("RS-D5", path, lineno,
                 f"range-for over unordered container '{m.group('cont')}' "
                 "feeds an accumulation (iteration order is "
                 "implementation-defined); iterate a sorted view or "
                 "index-ordered vector")


def check(tree, emit):
    for path, f in tree.files.items():
        if not path.startswith("src/"):
            continue
        if path != RNG_EXEMPT:
            for lineno, hint in f.grep(RNG_PATTERNS):
                emit("RS-D1", path, lineno, hint)
        if path not in CLOCK_WHITELIST:
            for lineno, hint in f.grep(CLOCK_PATTERNS):
                emit("RS-D2", path, lineno, hint)
        check_parallel_bodies(path, f.code, emit)
        for lineno, text in sorted(f.code.items()):
            head = text.split("=")[0].split(";")[0]
            if STATIC_LOCAL_RE.match(text) and "(" not in head:
                emit("RS-D4", path, lineno, "function-local mutable static "
                     f"({text.strip()[:60]!r}); hidden cross-call state "
                     "breaks replay — hoist it or justify with "
                     "allow(RS-D4)")
        if path.startswith(("src/core/", "src/algorithms/")):
            check_unordered_iteration(path, f.code, emit)
