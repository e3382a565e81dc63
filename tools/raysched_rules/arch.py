"""RS-A: include-graph architecture rules (layer order, cycles, dead
headers, transitive-include reliance).

See docs/STATIC_ANALYSIS.md ("Rule index") and DESIGN.md for the layer
order these rules enforce.
"""

import os
import re

RULES = {
    "RS-A1": "layering: include edge points upward in the layer order",
    "RS-A2": "cycles: include cycle between headers",
    "RS-A3": "dead-header: header unreachable from every translation unit",
    "RS-A4": "transitive-include: layer namespace used without a direct "
             "include of that layer",
}

# Layer order, lowest first. Files directly in src/ (the umbrella header)
# form the `api` pseudo-layer; files outside src/ are `top` consumers.
LIBRARY_LAYERS = ("util", "model", "core", "algorithms", "learning", "sim",
                  "serve")
LAYER_RANKS = {layer: rank for rank, layer in
               enumerate(LIBRARY_LAYERS + ("api", "top"))}
# RS-A4: namespace -> owning layer (`units` lives in util/units.hpp).
NAMESPACE_LAYER = dict({layer: layer for layer in LIBRARY_LAYERS},
                       units="util")
NAMESPACE_RE = re.compile(
    r"(?<![\w:])(?:raysched::)?"
    r"(util|units|model|core|algorithms|learning|sim|serve)::")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
UMBRELLA = "src/raysched.hpp"


def layer_of(path):
    parts = path.split("/")
    if parts[0] != "src":
        return "top"
    if len(parts) > 2 and parts[1] in LIBRARY_LAYERS:
        return parts[1]
    return "api"


def resolve_include(including, spelled, known):
    """Maps an include spelling to a repo path, or None (system headers).

    Mirrors the build: the including file's directory, then src/, then the
    repo root, then tests/ (raysched_cli borrows the fault harness).
    """
    for cand in (os.path.join(os.path.dirname(including), spelled),
                 os.path.join("src", spelled), spelled,
                 os.path.join("tests", spelled)):
        cand = os.path.normpath(cand).replace(os.sep, "/")
        if cand in known:
            return cand
    return None


def reachable(graph, starts):
    """Every node reachable from `starts` by one or more edges."""
    seen = set()
    frontier = [succ for node in starts for succ in graph[node]]
    while frontier:
        node = frontier.pop()
        if node not in seen:
            seen.add(node)
            frontier.extend(graph[node])
    return seen


def check(tree, emit):
    includes = {}    # path -> [(lineno, spelled, resolved)]
    namespaces = {}  # path -> {namespace: first lineno}
    for path, f in tree.files.items():
        includes[path], namespaces[path] = [], {}
        for lineno, code in sorted(f.code.items()):
            m = INCLUDE_RE.match(code)
            if m:
                includes[path].append(
                    (lineno, m.group(1),
                     resolve_include(path, m.group(1), tree.files)))
                continue
            for nm in NAMESPACE_RE.finditer(code):
                namespaces[path].setdefault(nm.group(1), lineno)
    graph = {path: sorted({r for _, _, r in edges if r and r != path})
             for path, edges in includes.items()}

    for path, edges in includes.items():
        layer = layer_of(path)
        for lineno, spelled, resolved in edges:
            upper = resolved and layer_of(resolved)
            if upper and LAYER_RANKS[upper] > LAYER_RANKS[layer]:
                emit("RS-A1", path, lineno,
                     f"layer '{layer}' includes '{resolved}' from higher "
                     f"layer '{upper}' (spelled \"{spelled}\"); the layer "
                     "order is " + " -> ".join(LIBRARY_LAYERS),
                     key=f"{path} -> {resolved}")

    # RS-A2: a node on a cycle reaches itself; its cycle is every node it
    # reaches that reaches it back.
    reach = {path: reachable(graph, [path]) for path in graph}
    reported = set()
    for path in sorted(graph):
        if path in reach[path] and path not in reported:
            members = sorted(q for q in reach[path] if path in reach[q])
            reported.update(members)
            emit("RS-A2", members[0], 0,
                 "include cycle between " + ", ".join(members),
                 key="cycle: " + " <-> ".join(members))

    tus = [path for path in graph if path.endswith(".cpp")]
    live = reachable(graph, tus).union(tus)
    for path in sorted(set(graph) - live):
        emit("RS-A3", path, 0, "header has no inbound include path from any "
             "translation unit (orphan: unbuilt, untested)",
             key=f"dead: {path}")

    # RS-A4: library files name only layers they include directly (the
    # umbrella header counts as including every layer).
    for path in sorted(includes):
        resolved = {r for _, _, r in includes[path] if r}
        if not path.startswith("src/") or UMBRELLA in resolved:
            continue
        direct = {layer_of(r) for r in resolved}
        for namespace, lineno in sorted(namespaces[path].items()):
            owning = NAMESPACE_LAYER[namespace]
            if owning != layer_of(path) and owning not in direct:
                emit("RS-A4", path, lineno,
                     f"names '{namespace}::' but has no direct include of "
                     f"any src/{owning}/ header (transitive-include "
                     "reliance)", key=f"{path} uses {namespace}::")
    return {"include_graph": graph}
