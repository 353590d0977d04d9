"""Seeded network generators for the ``ladder`` and ``tables`` workloads.

Both return plain :class:`semnet.Network` values; the benchmark serialises
them and feeds the ``.semnet`` text through the same load path as the
shipped corpus. Generation uses only ``random.Random(seed)``, so a seed
fixes every set, row and data selection.
"""

from __future__ import annotations

import itertools
import random

from semnet import Network, Relation, ValueSet, full_space_size


def synthetic(depth: int, width: int, domain: int, row_density: float,
              seed: int) -> Network:
    """A layered DAG: ``depth`` layers of ``width`` sets, then one sink.

    Every set has ``domain`` values. Layer 0 holds the sources and is the
    data selection. Every set of a later layer is the single output of one
    relation whose inputs are two neighbouring sets of the layer before;
    the sink ``OUT`` is read off the whole last layer. Each input tuple
    gets one random output value, then a ``row_density`` share of the
    remaining (inputs, output) cells is added at random. Row counts are
    thus fixed by the shape, relations are total but not functional, and
    per-anchor searches branch and dead-end on the way to the sink.
    """
    if depth < 2 or width < 2 or domain < 2:
        raise ValueError("synthetic needs depth, width and domain of at least 2")
    rng = random.Random(seed)
    values = tuple(f"v{i}" for i in range(domain))
    layers = [[f"L{k}_{j}" for j in range(width)] for k in range(depth)]
    sets = tuple(ValueSet(sid, values) for layer in layers for sid in layer)
    sets += (ValueSet("OUT", values),)

    def relation(rid: str, ins: tuple[str, ...], out: str) -> Relation:
        inputs = list(itertools.product(range(domain), repeat=len(ins)))
        cells = {(*x, rng.randrange(domain)) for x in inputs}
        spare = [(*x, c) for x in inputs for c in range(domain) if (*x, c) not in cells]
        cells.update(rng.sample(spare, round(row_density * len(spare))))
        rows = tuple(tuple(values[i] for i in cell) for cell in sorted(cells))
        return Relation(rid, ins, (out,), rows)

    relations = [relation(f"r{k}_{j}", (layers[k - 1][j], layers[k - 1][(j + 1) % width]),
                          layers[k][j])
                 for k in range(1, depth) for j in range(width)]
    relations.append(relation("out", tuple(layers[-1]), "OUT"))
    return Network(f"ladder-d{depth}-s{seed}", sets, tuple(relations),
                   frozenset(layers[0]))


def tables(domain: int, seed: int) -> Network:
    """Few sets joined by large, complete extensional tables.

    Data sets ``A`` and ``B`` (8 values each) give 64 data anchors. Inner
    sets ``C`` and ``D`` have ``domain`` values each and the sink ``E`` has
    4. ``f`` maps (A, B) to C; ``g`` is a complete table from (A, B, C) to
    D with ``64 * domain`` rows, and ``h`` one from (B, C, D) to E with
    ``8 * domain**2`` rows. Every output value is drawn at random, so all
    three relations are total functions, each per-anchor search assigns
    only C, D and E, and every sink value is reached early in a search.
    """
    rng = random.Random(seed)
    a_vals = tuple(f"a{i}" for i in range(8))
    b_vals = tuple(f"b{i}" for i in range(8))
    c_vals, d_vals = (tuple(f"{p}{i}" for i in range(domain)) for p in "cd")
    e_vals = ("e0", "e1", "e2", "e3")
    f_rows = tuple((a, b, rng.choice(c_vals)) for a in a_vals for b in b_vals)
    g_rows = tuple((a, b, c, rng.choice(d_vals))
                   for a in a_vals for b in b_vals for c in c_vals)
    h_rows = tuple((b, c, d, rng.choice(e_vals))
                   for b in b_vals for c in c_vals for d in d_vals)
    sets = (ValueSet("A", a_vals), ValueSet("B", b_vals), ValueSet("C", c_vals),
            ValueSet("D", d_vals), ValueSet("E", e_vals))
    relations = (Relation("f", ("A", "B"), ("C",), f_rows),
                 Relation("g", ("A", "B", "C"), ("D",), g_rows),
                 Relation("h", ("B", "C", "D"), ("E",), h_rows))
    return Network(f"tables-m{domain}-s{seed}", sets, relations,
                   frozenset({"A", "B"}))


def size_record(network: Network) -> dict:
    """The stated input size of one generated network."""
    return {
        "network": network.name,
        "sets": len(network.sets),
        "rows": sum(len(rel.rows) for rel in network.relations),
        "cartesian": full_space_size(network),
    }
