"""RS-N: floating-point numerical-safety rules (exact comparisons,
unguarded divisions, unvalidated domain calls, linear probability
products, float narrowing).

See docs/STATIC_ANALYSIS.md ("Rule index") for what each rule enforces,
its scope and the numerical discipline behind it.
"""

import re

RULES = {
    "RS-N1": "exact-compare: exact float equality outside util::fp "
             "sentinel predicates",
    "RS-N2": "unguarded-div: denominator not provably nonzero at the "
             "division",
    "RS-N3": "bare-domain: std::log/sqrt/pow/exp on an unvalidated "
             "argument",
    "RS-N4": "linear-product: link-indexed probability product with no "
             "log-space fallback in the TU",
    "RS-N5": "narrow-float: float declaration/literal/cast in the math "
             "layers",
}

MATH_LAYERS = ("src/core/", "src/model/", "src/algorithms/",
               "src/learning/")

FLOAT_LIT = r"(?:\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+|\.\d+)"
# `x == 0.0`, `0.0 != x`: an exact comparison where either side is a
# floating literal. `<=`/`>=` never match (the operator is exactly ==/!=).
EXACT_CMP_RE = re.compile(
    rf"(?:[=!]=\s*-?{FLOAT_LIT})|(?:{FLOAT_LIT}\s*[=!]=)")

# RS-N2: `/ name`, `/ obj.member()`, `/ arr[i]` — a denominator that is a
# value read, not a literal or parenthesized structural expression.
DIV_RE = re.compile(
    r"/\s*(?P<den>[A-Za-z_]\w*(?:(?:\.|->)\w+(?:\(\s*\w*\s*\))?"
    r"|\[[^\]]*\]|\(\s*\w*\s*\))*)")
NONZERO_LIT_RE = re.compile(rf"^\s*/?\s*-?(?:[1-9]\d*\.?\d*|0*\.\d*[1-9]|"
                            rf"[1-9]\d*e[-+]?\d+)")
# Structurally positive denominator: (x + y) where one addend repeats the
# numerator context — the division-safe a*x / (a*x + s) rewrite. We accept
# any parenthesized sum/product group as "structural" only when it contains
# a '+' joining two nonempty operands.
STRUCT_DEN_RE = re.compile(r"/\s*\([^()]*\+[^()]*\)")
# Integer-typed denominators that a require() guards as a count:
SIZE_DEN_RE = re.compile(r"(?:\.size\(\)|_count|count\(\))\s*$")

GUARD_TOKENS = ("require", "RAYSCHED_EXPECT", "RAYSCHED_ENSURE", "if",
                "while", "exact_zero", "exact_one")

# RS-N3 call sites.
DOMAIN_CALL_RE = re.compile(r"std::(?P<fn>log|sqrt|pow|exp)\s*\(")

# RS-N4: scalar loop-carried product (target not indexed) ...
PRODUCT_RE = re.compile(r"(?<![\w.\]])(?P<name>[A-Za-z_]\w*)\s*\*=")
# ... under a link-indexed loop header ...
LINK_LOOP_RE = re.compile(
    r"for\s*\([^)]*<\s*(?:[^)<]*\.size\s*\(\s*\)|n_?\b|count\b|num_\w+)")
# ... with no log-space fallback in the TU.
LOG_FALLBACK_RE = re.compile(r"std::log1p\s*\(")

# RS-N5 patterns.
NARROW_PATTERNS = [
    (re.compile(r"\b\d+\.\d*f\b"), "float literal"),
    (re.compile(r"static_cast<\s*float\s*>"), "static_cast<float>"),
    (re.compile(r"(?<![\w:])float\b(?!\s*\))"), "float declaration"),
]


def root_token(expr):
    """The leading identifier of an expression — the name a guard would
    mention. `q[i].value()` -> `q`; `net.signal(i)` -> `signal` (the most
    specific call name beats the object for member chains). Casts and
    std:: wrappers are transparent: `static_cast<double>(n)` -> `n`,
    `std::pow(d, a)` -> `d`."""
    expr = expr.strip()
    m = re.match(r"(?:static_cast|const_cast)\s*<[^<>]*>\s*\((.*)\)\s*$",
                 expr)
    if m:
        return root_token(m.group(1))
    m = re.match(r"std\s*::\s*\w+\s*\((.*)\)\s*$", expr)
    if m:
        return root_token(m.group(1).split(",")[0])
    calls = re.findall(r"(?<!std::)\b(?:\.|->)?(\w+)\s*\(", expr)
    calls = [c for c in calls if c not in ("static_cast", "const_cast")]
    if calls:
        return calls[-1]
    m = re.match(r"\s*-?\s*([A-Za-z_]\w*)", expr)
    if m and m.group(1) not in ("std", "static_cast", "const_cast"):
        return m.group(1)
    # Literal-leading expressions (`1.0 - eta_`): first identifier anywhere.
    for tok in re.findall(r"[A-Za-z_]\w*", expr):
        if tok not in ("std", "static_cast", "const_cast", "double", "e",
                       "f", "value"):
            return tok
    return None


def same_line_sentinel(text, token):
    """A sentinel test on `token` on the division's own line — the
    `exact_zero(x) ? 0.0 : y / x` shape — guards the division."""
    esc = re.escape(token)
    if re.search(rf"exact_(?:zero|one|eq)\s*\([^()]*\b{esc}\b", text):
        return "?" in text
    if re.search(rf"\b{esc}\b[^?]*(?:[=!<>]=|[<>])[^?]*\?", text):
        return True
    if re.search(rf"(?:[=!<>]=|[<>])\s*{esc}\b[^?]*\?", text):
        return True
    return False


def guard_evidence(code, linenos, idx, token):
    """True if a guard mentioning `token` appears earlier in the enclosing
    function (scan back to the previous column-0 `}` / declaration end,
    capped at 60 lines), or a sentinel test guards it on the same line."""
    if not token:
        return False
    token_re = re.compile(rf"\b{re.escape(token)}\b")
    if same_line_sentinel(code[linenos[idx]], token):
        return True
    # A branch on the token in the same statement (`if (s > 0.0) x = a / s;`)
    # is guard evidence even though no earlier line mentions the token.
    if re.search(rf"\b(?:if|while)\s*\([^()]*\b{re.escape(token)}\b",
                 code[linenos[idx]]):
        return True
    seen = 0
    for j in range(idx - 1, -1, -1):
        text = code[linenos[j]]
        seen += 1
        if seen > 60:
            return False
        if text.startswith("}"):
            return False
        if token_re.search(text) and any(g + "(" in text.replace(" (", "(")
                                         or g + " (" in text
                                         for g in GUARD_TOKENS):
            return True
        # Domain-establishing assignments: `x = std::abs(...)`,
        # `x = std::max(<positive floor>, ...)`, or a squared form.
        m = re.search(rf"\b{re.escape(token)}\s*=[^=]", text)
        if m and re.search(r"std::(abs|fabs|max|min|clamp|exp)\s*\(", text):
            return True
        # A const local pinned to a nonzero literal (`tiny = 1e-300`)
        # cannot be zero; treat the declaration as the guard.
        m = re.search(rf"\b{re.escape(token)}\s*=\s*"
                      rf"(-?(?:\d+\.?\d*(?:e[-+]?\d+)?|\.\d+(?:e[-+]?\d+)?))"
                      rf"\s*[;,)]", text)
        if m:
            try:
                if float(m.group(1)) != 0.0:
                    return True
            except ValueError:
                pass
    return False


# --- RS-N1 -----------------------------------------------------------------

def check_exact_compare(path, code, emit):
    for lineno in sorted(code):
        text = code[lineno]
        if not text.strip():
            continue
        m = EXACT_CMP_RE.search(text)
        if not m:
            continue
        emit("RS-N1", path, lineno,
             f"exact float comparison ({m.group(0).strip()!r}); use the "
             "util::fp sentinel predicates (exact_zero / exact_one / "
             "exact_eq) so the comparison is audited in one place")


# --- RS-N2 -----------------------------------------------------------------

def check_divisions(path, code, emit):
    linenos = sorted(code)
    for idx, lineno in enumerate(linenos):
        text = code[lineno]
        if "/" not in text:
            continue
        if "#include" in text:
            continue
        # Remove structurally-safe denominators first: x / (a + b) — the
        # division-safe rewrite — never flags.
        cleaned = STRUCT_DEN_RE.sub("/ 1", text)
        for m in DIV_RE.finditer(cleaned):
            den = m.group("den")
            if not den:
                continue
            # `/=` and `//` (already comment-stripped) and closing templates.
            before = cleaned[:m.start()].rstrip()
            if before.endswith(("=", "/", "*", "<")):
                continue
            if NONZERO_LIT_RE.match(den):
                continue
            # DIV_RE stops at '<'/'::'; re-parse cast and std:: wrapper
            # denominators with balanced parens to reach the inner name.
            if den in ("static_cast", "const_cast", "std"):
                tail = cleaned[m.start("den"):]
                lp = tail.find("(")
                if lp >= 0:
                    den = tail[:lp + 1] + call_argument(tail, lp) + ")"
            mstd = re.match(r"std::(\w+)\s*\((.*)\)$", den.strip())
            if mstd:
                fn, arglist = mstd.groups()
                parts = [a.strip() for a in arglist_split(arglist)]
                # A positive-floor clamp (`std::max(1e-300, x)`) or a call
                # on literal-only arguments is structurally nonzero.
                if fn in ("max", "fmax") and parts and \
                        NONZERO_LIT_RE.match(parts[0]):
                    continue
                if parts and all(
                        re.fullmatch(rf"-?{FLOAT_LIT}|-?\d+", a)
                        for a in parts):
                    continue
            token = root_token(den)
            if token in ("size", "count"):  # count guarded by emptiness
                owners = [t for t in re.findall(r"[A-Za-z_]\w*", den)
                          if t not in ("static_cast", "const_cast", "std",
                                       "double", "size", "count", "value")]
                if owners:
                    token = owners[0]
            if guard_evidence(code, linenos, idx, token):
                continue
            # static_cast<double>(x) of a guarded count: evidence check on
            # the inner name already happened via root_token above.
            emit("RS-N2", path, lineno,
                 f"division by {den.strip()!r} with no visible nonzero "
                 "guard (require / RAYSCHED_EXPECT / branch) in the "
                 "enclosing function")
            break  # one finding per line keeps keys stable


# --- RS-N3 -----------------------------------------------------------------

def arglist_split(arglist):
    """Split a call argument list on top-level commas only."""
    parts, depth, cur = [], 0, []
    for ch in arglist:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def call_argument(text, start):
    """The balanced argument list of a call whose '(' is at `start`."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[start + 1:i]
    return text[start + 1:]


def arg_is_safe(fn, arg):
    arg = arg.strip()
    if not arg:
        return True
    first = arg.split(",")[0].strip()
    # Literals are audited by eye.
    if re.fullmatch(rf"-?{FLOAT_LIT}|-?\d+", first):
        return True
    # exp of an explicitly negated quantity is bounded above by 1.
    if fn == "exp" and first.startswith("-"):
        return True
    # sqrt of a sum of self-products (dx*dx + dy*dy) is non-negative.
    if fn == "sqrt":
        terms = [t.strip() for t in first.split("+")]
        if terms and all(re.fullmatch(r"(\w+)\s*\*\s*\1", t) for t in terms):
            return True
    return False


def check_domain_calls(path, code, emit):
    linenos = sorted(code)
    for idx, lineno in enumerate(linenos):
        text = code[lineno]
        for m in DOMAIN_CALL_RE.finditer(text):
            fn = m.group("fn")
            arg = call_argument(text, m.end() - 1)
            if arg_is_safe(fn, arg):
                continue
            token = root_token(arg.split(",")[0])
            if guard_evidence(code, linenos, idx, token):
                continue
            emit("RS-N3", path, lineno,
                 f"std::{fn}({arg.split(',')[0].strip()[:40]}...) on an "
                 "unvalidated argument; add a require/RAYSCHED_EXPECT "
                 "domain guard in the enclosing function")
            break


# --- RS-N4 -----------------------------------------------------------------

def check_linear_products(path, code, emit):
    joined = "\n".join(code.values())
    if LOG_FALLBACK_RE.search(joined):
        return  # the TU carries a log-space fallback path
    linenos = sorted(code)
    for idx, lineno in enumerate(linenos):
        m = PRODUCT_RE.search(code[lineno])
        if not m:
            continue
        # Indexed targets (per-element updates) are not loop-carried scalars.
        after = code[lineno][m.start():]
        if re.match(rf"{re.escape(m.group('name'))}\s*\[", after):
            continue
        # Only probability-shaped factors underflow the Theorem-1 way: the
        # RHS must carry a complement term (1 - x) or a Probability read.
        rhs = after.split("*=", 1)[1] if "*=" in after else after
        if not re.search(r"1(?:\.0*)?\s*-|\.value\(\)", rhs):
            continue
        in_link_loop = any(
            LINK_LOOP_RE.search(code[linenos[j]])
            for j in range(max(0, idx - 6), idx))
        if not in_link_loop:
            continue
        emit("RS-N4", path, lineno,
             f"loop-carried product '{m.group('name')} *=' over a "
             "link-indexed loop with no std::log1p fallback in this TU — "
             "the Theorem-1 underflow shape; add a log-space companion "
             "(see rayleigh_success_log_probabilities)")


# --- RS-N5 -----------------------------------------------------------------

def check_narrowing(path, code, emit):
    for lineno in sorted(code):
        text = code[lineno]
        for regex, hint in NARROW_PATTERNS:
            if regex.search(text):
                emit("RS-N5", path, lineno,
                     f"{hint} in the double-precision math layers")
                break


def check(tree, emit):
    # String contents are scrubbed: a '/' or '== 0.0' in a message is prose.
    for path, f in tree.files.items():
        if not path.startswith("src/") or path.startswith("src/util/"):
            continue  # the audited crossing layer holds the raw idioms
        check_exact_compare(path, f.scrubbed, emit)
        check_divisions(path, f.scrubbed, emit)
        check_domain_calls(path, f.scrubbed, emit)
        if path.startswith(MATH_LAYERS):
            check_linear_products(path, f.scrubbed, emit)
            check_narrowing(path, f.scrubbed, emit)
