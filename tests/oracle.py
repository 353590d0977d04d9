"""Pure-Python reference implementations used to freeze expected values.

Everything here is deliberately naive: full cartesian enumeration with
itertools over dicts, no arrays, no pruning, and no code shared with the
package engines. Tests derive expected values from these functions and
compare every engine against them.
"""

from __future__ import annotations

import itertools
import json

__all__ = [
    "all_full_instances",
    "distinct_from",
    "oracle_completions",
    "oracle_count_distinct",
    "oracle_functional",
    "oracle_injective",
    "oracle_is_consistent",
    "oracle_minimal",
    "oracle_outcomes",
    "oracle_render_json",
    "oracle_structure",
    "rows_conform",
    "oracle_surjective",
    "oracle_surjective_in",
    "oracle_total",
    "instances_over",
]


def instances_over(network, scope):
    """All assignments over the scope as dicts, in lexicographic
    (set declaration, value declaration) order."""
    ordered = [vs for vs in network.sets if vs.id in set(scope)]
    for combo in itertools.product(*[vs.values for vs in ordered]):
        yield dict(zip([vs.id for vs in ordered], combo))


def all_full_instances(network):
    return instances_over(network, [vs.id for vs in network.sets])


def oracle_is_consistent(network, full):
    for rel in network.relations:
        row = tuple(full[sid] for sid in rel.in_sets + rel.out_sets)
        if row not in set(rel.rows):
            return False
    return True


def oracle_completions(network, partial):
    return [
        full for full in all_full_instances(network)
        if oracle_is_consistent(network, full)
        and all(full[k] == v for k, v in partial.items())
    ]


def _projection(full, target):
    return tuple(sorted((k, full[k]) for k in target))


def oracle_count_distinct(network, partial, target, mode):
    return distinct_from(oracle_completions(network, partial), target, mode)


def distinct_from(comps, target, mode):
    """Distinct count over already-enumerated completions."""
    if mode == "full":
        return len(comps)
    return len({_projection(f, target) for f in comps})


def oracle_outcomes(network, partial, target, mode):
    comps = oracle_completions(network, partial)
    if mode == "full":
        return {tuple(sorted(f.items())) for f in comps}
    return {_projection(f, target) for f in comps}


def oracle_functional(network, from_scope, to_scope, mode):
    return all(
        oracle_count_distinct(network, a, to_scope, mode) <= 1
        for a in instances_over(network, from_scope))


def oracle_total(network, from_scope):
    return all(
        len(oracle_completions(network, a)) >= 1
        for a in instances_over(network, from_scope))


def oracle_injective(network, from_scope, to_scope, mode):
    return all(
        oracle_count_distinct(network, b, from_scope, mode) <= 1
        for b in instances_over(network, to_scope))


def oracle_surjective(network, to_scope):
    return all(
        len(oracle_completions(network, b)) >= 1
        for b in instances_over(network, to_scope))


def oracle_surjective_in(network, param):
    return all(
        len(oracle_completions(network, {param: v})) >= 1
        for v in network.value_set(param).values)


def oracle_minimal(network, from_scope, to_scope, mode):
    """Direct outcome-set comparison — no reliance on count shortcuts."""
    for q in from_scope:
        rest = [sid for sid in from_scope if sid != q]
        separated = False
        for a in instances_over(network, from_scope):
            restricted = {k: v for k, v in a.items() if k in rest}
            kept = oracle_outcomes(network, a, to_scope, mode)
            dropped = oracle_outcomes(network, restricted, to_scope, mode)
            if kept != dropped:
                separated = True
                break
        if not separated:
            return False
    return True


def oracle_render_json(network_name, direction, mode, verdicts):
    """The report document as ``json.dumps`` lays it out: a dict per
    object, sorted keys, two-space indent and a trailing newline."""
    def witness_doc(w):
        return {"anchor": w.anchor.as_dict(),
                "evidence": [e.as_dict() for e in w.evidence],
                "note": w.note}
    doc = {
        "network": network_name,
        "direction": direction,
        "mode": mode,
        "verdicts": [
            {
                "property": v.query.kind.value,
                "from": list(v.query.from_scope),
                "to": list(v.query.to_scope),
                "param": v.query.param,
                "holds": v.holds,
                "witnesses": [witness_doc(w) for w in v.witnesses],
                "instances_checked": v.instances_checked,
            }
            for v in verdicts
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def rows_conform(rows, domains):
    """Whether every row holds one value per domain, each value lies in its
    column's domain, and no row repeats: the column-by-column check that
    ``model.row_keys`` replaced, which it must accept and refuse alike."""
    if set(map(len, rows)) - {len(domains)}:
        return False
    return (all(map(frozenset.issuperset, domains, zip(*rows)))
            and len(set(rows)) == len(rows))


def oracle_structure(network):
    """``(acyclic, contiguous)`` as the definitions read, over string ids.

    Acyclic: a colour-marking depth-first search of the directed graph
    whose nodes are ("set", id) and ("rel", id), with an edge from each
    in-set to its relation and from each relation to each out-set, finds
    no grey node. Contiguous: the nodes that count are the relations, the
    declared sets some relation's scope holds and the declared data sets;
    joining each relation to the declared sets of its scope, union-find
    leaves at most one component."""
    edges = {}
    for rel in network.relations:
        edges.setdefault(("rel", rel.id), [])
        for sid in rel.in_sets:
            edges.setdefault(("set", sid), []).append(("rel", rel.id))
        for sid in rel.out_sets:
            edges.setdefault(("set", sid), [])
            edges[("rel", rel.id)].append(("set", sid))
    colour = dict.fromkeys(edges, "white")

    def closes_a_cycle(node):
        colour[node] = "grey"
        for nxt in edges[node]:
            if colour[nxt] == "grey" or (colour[nxt] == "white" and closes_a_cycle(nxt)):
                return True
        colour[node] = "black"
        return False

    acyclic = not any(colour[node] == "white" and closes_a_cycle(node) for node in edges)

    declared = {vs.id for vs in network.sets}
    parent = {}

    def find(node):
        parent.setdefault(node, node)
        while parent[node] != node:
            node = parent[node]
        return node

    for rel in network.relations:
        find(("rel", rel.id))
        for sid in rel.in_sets + rel.out_sets:
            if sid in declared:
                parent[find(("set", sid))] = find(("rel", rel.id))
    for sid in network.data_selection & declared:
        find(("set", sid))
    contiguous = len({find(node) for node in list(parent)}) <= 1
    return acyclic, contiguous
