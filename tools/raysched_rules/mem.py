"""RS-M: hot-path memory-discipline rules over the regions annotated
``// raysched:hot`` and listed in tools/hot_manifest.txt, plus heavy
by-value signatures.

See docs/STATIC_ANALYSIS.md ("Rule index") for what each rule enforces
and how hot regions are declared.
"""

import collections
import os
import re

RULES = {
    "RS-M0": "manifest: tools/hot_manifest.txt and // raysched:hot "
             "annotations must match exactly",
    "RS-M1": "hot-alloc: heap allocation inside a hot region (scratch "
             "buffers and out-parameters exempt)",
    "RS-M2": "heavy-by-value: heavy type passed by value in a "
             "core/algorithms/serve header signature",
    "RS-M3": "growth-loop: push_back/insert in a hot loop with no "
             "earlier reserve on the container",
    "RS-M4": "returned-copy: container materialized from a callee's "
             "return value inside a hot region",
    "RS-M5": "aos-chase: array-of-structs member access in a hot region; "
             "lay hot data out struct-of-arrays",
    "RS-M6": "hot-dispatch: std::function in a hot region",
}

SCAN_DIRS = ("src/", "bench/")
SIGNATURE_LAYERS = ("src/core/", "src/algorithms/", "src/serve/")
MANIFEST_REL = "tools/hot_manifest.txt"

HOT_RE = re.compile(r"//\s*raysched:hot(?:\((?P<label>[\w.-]+)\))?\s*$")

# Container types whose construction/growth allocates. std::array and the
# unit wrappers over scalars are exempt by omission.
CONTAINER_TYPE = (
    r"(?:std::(?:vector|deque|string|map|set|unordered_map|unordered_set)\b"
    r"\s*(?:<[^;={]*?>)?|(?:model::)?LinkSet\b|"
    r"(?:units::)?ProbabilityVector\b)")
CONTAINER_DECL_RE = re.compile(
    CONTAINER_TYPE + r"\s+(?P<name>\w+)\s*(?P<init>[=({])")
NEW_RE = re.compile(r"\bnew\b")
MAKE_RE = re.compile(r"\bstd::make_(?:unique|shared)\b")
MEMBER_OP_RE = re.compile(
    r"(?P<chain>\w+(?:(?:\.|->)\w+)*)\s*(?:\.|->)\s*"
    r"(?P<op>resize|assign|reserve|push_back|emplace_back|insert|emplace)"
    r"\s*\(")
# Initializer that is itself a call: `= f(...)`, `= obj.method(...)`,
# `= ns::f(...)`. A bare identifier (copy-init) is RS-M1 instead.
CALL_INIT_RE = re.compile(r"^\s*[\w:]+(?:(?:\.|->)\w+)*\s*\(")
ALIAS_RE = re.compile(r"&\s*(?P<name>\w+)\s*=\s*(?P<target>\w+)\s*;")
LOOP_RE = re.compile(r"\b(?:for|while)\s*\(")
AOS_RE = re.compile(r"\b\w+\s*\[\s*\w+\s*\]\s*\.\s*\w+\b(?!\s*\()")
FUNCTION_TOKEN_RE = re.compile(r"\bstd::function\b")
REF_PARAM_RE = re.compile(r"&\s*(\w+)\s*[,)]")

HEAVY_PARAM_RES = [
    re.compile(r"(?:model::)?\b(?:Network|LinkSet)\s+(?P<name>\w+)"
               r"\s*(?P<after>[,)=])"),
    re.compile(r"(?:units::)?\bProbabilityVector\s+(?P<name>\w+)"
               r"\s*(?P<after>[,)=])"),
    re.compile(r"std::vector\s*<[^<>;]*>\s+(?P<name>\w+)"
               r"\s*(?P<after>[,)=])"),
]


# One annotated region: lines [sig_line, end_line], both inclusive;
# `exempt` holds by-reference parameter names (out-buffers).
HotRegion = collections.namedtuple(
    "HotRegion",
    "label anno_line sig_line open_line end_line exempt is_loop")


def find_hot_regions(path, code, raw, emit):
    """Parses // raysched:hot annotations into HotRegions. A dangling
    annotation (no following code, no body brace) is an RS-M0 finding."""
    regions = []
    max_line = len(raw)
    for lineno, line in enumerate(raw, start=1):
        m = HOT_RE.search(line)
        if not m:
            continue
        label = m.group("label")
        is_loop = label is not None
        # First following line that still has code after comment stripping.
        sig_line = None
        for j in range(lineno + 1, max_line + 1):
            if code.get(j, "").strip():
                sig_line = j
                break
        if sig_line is None:
            emit("RS-M0", path, lineno,
                 "dangling // raysched:hot annotation (no code follows)")
            continue
        # Collect the header text up to the body-opening '{'.
        open_line = None
        header = ""
        for j in range(sig_line, min(sig_line + 12, max_line) + 1):
            text = code.get(j, "")
            brace = text.find("{")
            if brace >= 0:
                header += " " + text[:brace]
                open_line = j
                break
            header += " " + text
        if open_line is None:
            emit("RS-M0", path, lineno,
                 "// raysched:hot annotation with no body brace within 12 "
                 "lines")
            continue
        exempt = set()
        if not is_loop:
            head = header.split("(", 1)[0]
            names = re.findall(r"[\w~]+", head.replace("::", " "))
            if not names:
                emit("RS-M0", path, lineno,
                     "could not name the function after // raysched:hot")
                continue
            label = names[-1]
            params = header.split("(", 1)[1] if "(" in header else ""
            exempt = set(REF_PARAM_RE.findall(params))
        # Brace-match the body to find the region's end.
        depth = 0
        end_line = open_line
        done = False
        for j in range(open_line, max_line + 1):
            for ch in code.get(j, ""):
                if ch == "{":
                    depth += 1
                elif ch == "}":
                    depth -= 1
                    if depth == 0:
                        end_line = j
                        done = True
                        break
            if done:
                break
        regions.append(HotRegion(label, lineno, sig_line, open_line,
                                 end_line, exempt, is_loop))
    return regions


def reserve_lines(code):
    """{container name: first line with `name.reserve(`} for the file."""
    out = {}
    for lineno in sorted(code):
        for m in re.finditer(r"(\w+)\s*\.\s*reserve\s*\(", code[lineno]):
            out.setdefault(m.group(1), lineno)
    return out


def check_hot_region(path, code, region, reserves, emit):
    # First pass: local references bound to a scratch buffer inherit its
    # exemption (`LinkSet& live = live_scratch_;`).
    scratch_names = set(region.exempt)
    for lineno in range(region.sig_line, region.end_line + 1):
        m = ALIAS_RE.search(code.get(lineno, ""))
        if m and "scratch" in m.group("target").lower():
            scratch_names.add(m.group("name"))

    def scratchy(chain):
        base = re.split(r"\.|->", chain)[-1]
        return ("scratch" in chain.lower() or base in scratch_names)

    depth = 0
    loop_depths = []
    pending_loop = region.is_loop
    for lineno in range(region.sig_line, region.end_line + 1):
        text = code.get(lineno, "")
        if not text.strip():
            continue
        if LOOP_RE.search(text):
            pending_loop = True
        in_loop = region.is_loop or bool(loop_depths) or pending_loop

        if FUNCTION_TOKEN_RE.search(text):
            emit("RS-M6", path, lineno,
                 f"std::function in hot region '{region.label}': type-erased "
                 "dispatch defeats inlining and may allocate; take a "
                 "template parameter or a function pointer")
        if NEW_RE.search(text):
            emit("RS-M1", path, lineno,
                 f"operator new in hot region '{region.label}'")
        if MAKE_RE.search(text):
            emit("RS-M1", path, lineno,
                 f"make_unique/make_shared in hot region '{region.label}'")
        for m in AOS_RE.finditer(text):
            emit("RS-M5", path, lineno,
                 f"AoS member access {m.group(0).strip()!r} in hot region "
                 f"'{region.label}'; hot data belongs in struct-of-arrays "
                 "layout")
            break  # one finding per line keeps keys stable
        for m in MEMBER_OP_RE.finditer(text):
            chain, op = m.group("chain"), m.group("op")
            if scratchy(chain):
                continue
            base = re.split(r"\.|->", chain)[-1]
            if op in ("resize", "assign", "reserve"):
                emit("RS-M1", path, lineno,
                     f"{chain}.{op}() in hot region '{region.label}' "
                     "allocates; reuse a scratch buffer (DESIGN.md "
                     "scratch-buffer convention)")
            elif in_loop:
                first_reserve = reserves.get(base)
                if first_reserve is None or first_reserve >= lineno:
                    emit("RS-M3", path, lineno,
                         f"{chain}.{op}() grows inside a hot loop "
                         f"('{region.label}') with no earlier "
                         f"{base}.reserve(); reserve up front")
        # Declarations are policed in the body only: the signature's
        # by-value parameters are RS-M2's concern, and return types like
        # std::optional<std::vector<double>> f(...) are not constructions.
        m = (CONTAINER_DECL_RE.search(text)
             if lineno > region.open_line else None)
        if m and "scratch" not in m.group("name").lower():
            init = m.group("init")
            rest = text[m.end():]
            if init == "=":
                if CALL_INIT_RE.match(rest):
                    emit("RS-M4", path, lineno,
                         f"container '{m.group('name')}' materialized from "
                         f"a call in hot region '{region.label}'; use the "
                         "callee's out-buffer overload")
                elif rest.strip() and not rest.lstrip().startswith(("{}",)):
                    emit("RS-M1", path, lineno,
                         f"container '{m.group('name')}' copy-initialized "
                         f"in hot region '{region.label}'; assign into a "
                         "reserved scratch buffer instead")
            elif rest.lstrip()[:1] not in (")", "}", ""):
                emit("RS-M1", path, lineno,
                     f"container '{m.group('name')}' constructed with "
                     f"contents in hot region '{region.label}'; hoist it "
                     "into a scratch buffer")

        # Brace/loop tracking for the *next* line's in_loop state.
        for ch in text:
            if ch == "{":
                depth += 1
                if pending_loop:
                    loop_depths.append(depth)
                    pending_loop = False
            elif ch == "}":
                if loop_depths and loop_depths[-1] == depth:
                    loop_depths.pop()
                depth -= 1
        if pending_loop and ";" in text and not LOOP_RE.search(text):
            pending_loop = False  # braceless single-statement loop ended


def check_signatures(path, code, emit):
    for lineno in sorted(code):
        text = code[lineno]
        for regex in HEAVY_PARAM_RES:
            m = regex.search(text)
            if m:
                emit("RS-M2", path, lineno,
                     f"heavy type passed by value as '{m.group('name')}'; "
                     "pass by const reference (or justify the sink with an "
                     "allow)")
                break


def check_manifest(root, annotated, emit):
    """RS-M0 both ways between the manifest and the annotated regions
    {(path, label): annotation line}; skipped when there is no manifest."""
    manifest = os.path.join(root, MANIFEST_REL)
    if not os.path.exists(manifest):
        return
    declared = {}
    with open(manifest, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) != 2:
                emit("RS-M0", MANIFEST_REL, lineno,
                     f"malformed manifest line {line.strip()!r} "
                     "(expected: <path> <region label>)",
                     key=f"{MANIFEST_REL}:{line.strip()}")
                continue
            declared[tuple(parts)] = lineno
    for (path, label), lineno in sorted(declared.items()):
        if (path, label) not in annotated:
            emit("RS-M0", MANIFEST_REL, lineno,
                 f"manifest entry '{path} {label}' has no matching "
                 "// raysched:hot annotation",
                 key=f"{MANIFEST_REL}:{path}:{label}")
    for (path, label), lineno in sorted(annotated.items()):
        if (path, label) not in declared:
            emit("RS-M0", path, lineno,
                 f"hot region '{label}' is not listed in {MANIFEST_REL}; "
                 "add it so the hot inventory stays reviewable",
                 key=f"{path}:hot region {label} unlisted")


def check(tree, emit):
    # String contents are scrubbed so prose like "new schedule" never
    # looks like an allocation.
    annotated = {}
    inventory = []
    for path, f in tree.files.items():
        if not path.startswith(SCAN_DIRS):
            continue
        regions = find_hot_regions(path, f.scrubbed, f.raw, emit)
        reserves = reserve_lines(f.scrubbed) if regions else {}
        for region in regions:
            check_hot_region(path, f.scrubbed, region, reserves, emit)
            annotated[(path, region.label)] = region.anno_line
            inventory.append({
                "path": path, "label": region.label,
                "kind": "loop" if region.is_loop else "function",
                "begin": region.sig_line, "end": region.end_line})
        if path.startswith(SIGNATURE_LAYERS) and path.endswith((".hpp",
                                                                ".h")):
            check_signatures(path, f.scrubbed, emit)
    check_manifest(tree.root, annotated, emit)
    return {"hot_regions": inventory}
