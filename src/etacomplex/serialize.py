"""Instance files: versioned JSON for every checkable object.

An instance file is a single JSON document with a format tag, a payload
kind, and the payload itself.  Supported kinds:

* ``complex``        -- one bounded complex over a base instance
* ``chain-maps``     -- a parallel pair of chain maps (homotopy questions)
* ``pair``           -- a composable pair i: X -> Y, p: Y -> Z (conflation
                        questions)
* ``gsystem``        -- a bigraded system with higher differentials
* ``delta-complex``  -- a completion input (strict i-differential plus a
                        commuting j-map)
* ``delta-map``      -- a column-wise chain map between two such inputs

Reading a file is where its input is checked, once: every object, matrix
and morphism is validated as it is parsed, and everything built from it
afterwards trusts those checks.  A ``chain-maps`` or ``pair`` file repeats
complexes (X and Y of both maps, Y as i's target and p's source); each
distinct complex sub-document is read once, and its copies load as the same
``Complex``.  Copies are matched on a form that records types, so one that
differs only in writing 1 as 1.0 or true is read, and rejected, on its own.
"""

from __future__ import annotations

import json
import marshal
from typing import Dict, List, Tuple

from .base import instance_from_json, json_int, json_matrix, json_pos, json_unique
from .complexes import ChainMap, Complex
from .gsystems import DeltaComplex, DeltaMap, GSystem

FORMAT = "etacomplex/1"


# -- complexes and chain maps ----------------------------------------------


def complex_to_json(c: Complex) -> dict:
    inst = c.instance
    return {
        "instance": inst.to_json(),
        "objects": [
            {"degree": n, "object": inst.obj_to_json(X)}
            for n, X in sorted(c.objects.items())
        ],
        "diffs": [
            {"degree": n, "morphism": inst.mor_to_json(d)}
            for n, d in sorted(c.diffs.items())
        ],
    }


def complex_from_json(d: dict) -> Complex:
    inst = instance_from_json(d["instance"])
    objects = json_unique([
        (json_int(e["degree"], "degree"), inst.obj_from_json(e["object"])) for e in d["objects"]
    ], "object degree")
    diffs = json_unique([(json_int(e["degree"], "degree"), e["morphism"]) for e in d["diffs"]],
                        "differential degree")
    zero = inst.zero_obj()
    return Complex(inst, objects, {n: inst.mor_from_json(m, objects.get(n, zero), objects.get(n + 1, zero))
                                   for n, m in diffs.items()})


def chain_map_to_json(f: ChainMap) -> dict:
    inst = f.instance
    return {
        "source": complex_to_json(f.source),
        "target": complex_to_json(f.target),
        "components": [
            {"degree": n, "morphism": inst.mor_to_json(m)}
            for n, m in sorted(f.components.items())
        ],
    }


def chain_map_from_json(d: dict, read_complex=complex_from_json) -> ChainMap:
    """The chain map of ``d``; ``read_complex`` reads its source and target."""
    src = read_complex(d["source"])
    tgt = read_complex(d["target"])
    inst = src.instance
    comps = json_unique([(json_int(e["degree"], "degree"), e["morphism"]) for e in d["components"]],
                        "component degree")
    return ChainMap(src, tgt, {n: inst.mor_from_json(m, src.obj(n), tgt.obj(n)) for n, m in comps.items()})


def delta_map_to_json(f: DeltaMap) -> dict:
    return {
        "source": f.source.to_json(),
        "target": f.target.to_json(),
        "components": [
            {"i": i, "j": j, "matrix": m.to_json()}
            for (i, j), m in sorted(f.components.items())
        ],
    }


def delta_map_from_json(d: dict) -> DeltaMap:
    src = DeltaComplex.from_json(d["source"])
    tgt = DeltaComplex.from_json(d["target"])
    comps = json_unique([(json_pos(e), json_matrix(e["matrix"], src.ring)) for e in d["components"]],
                        "component position")
    return DeltaMap(src, tgt, comps)


# -- instance files ---------------------------------------------------------


def payload_to_json(kind: str, obj) -> dict:
    if kind == "complex":
        body = complex_to_json(obj)
    elif kind == "chain-maps":
        f, g = obj
        body = {"f": chain_map_to_json(f), "g": chain_map_to_json(g)}
    elif kind == "pair":
        i, p = obj
        body = {"i": chain_map_to_json(i), "p": chain_map_to_json(p)}
    elif kind == "gsystem":
        body = obj.to_json()
    elif kind == "delta-complex":
        body = obj.to_json()
    elif kind == "delta-map":
        body = delta_map_to_json(obj)
    else:
        raise ValueError(f"unknown payload kind {kind!r}")
    return {"format": FORMAT, "kind": kind, "payload": body}


def _complex_reader():
    """``complex_from_json`` that reads each distinct sub-document once and
    returns the same Complex for every copy of it.

    Copies are matched on their ``marshal`` bytes, which record the type of
    every value, so 1, 1.0 and true differ: a match on dict equality would
    not, and would let a float or a bool past ``json_int``.  Version 2 writes
    no back-references, so the bytes depend only on the values, their types
    and the key order; they cost about a seventh of a read, where
    ``json.dumps`` costs half of one."""
    seen: Dict[bytes, Complex] = {}

    def read(d) -> Complex:
        key = marshal.dumps(d, 2)
        c = seen.get(key)
        if c is None:
            c = seen[key] = complex_from_json(d)
        return c

    return read


def payload_from_json(d: dict) -> Tuple[str, object]:
    if not isinstance(d, dict):
        raise ValueError(f"an instance file holds a JSON object, not {type(d).__name__}")
    if d.get("format") != FORMAT:
        raise ValueError(f"unsupported format tag {d.get('format')!r}")
    kind = d.get("kind")
    body = d["payload"]
    if kind == "complex":
        return kind, complex_from_json(body)
    if kind == "chain-maps":
        read = _complex_reader()
        f, g = chain_map_from_json(body["f"], read), chain_map_from_json(body["g"], read)
        if (f.source, f.target) != (g.source, g.target):
            raise ValueError("the chain maps do not share their source and target")
        return kind, (f, g)
    if kind == "pair":
        read = _complex_reader()
        i, p = chain_map_from_json(body["i"], read), chain_map_from_json(body["p"], read)
        if i.target != p.source:
            raise ValueError("p does not start where i ends")
        return kind, (i, p)
    if kind == "gsystem":
        return kind, GSystem.from_json(body)
    if kind == "delta-complex":
        return kind, DeltaComplex.from_json(body)
    if kind == "delta-map":
        return kind, delta_map_from_json(body)
    raise ValueError(f"unknown payload kind {kind!r}")


def save_instance_file(path: str, kind: str, obj) -> None:
    """Write the instance file as one line of JSON: ``json.dumps`` without an
    indent runs the C encoder, where ``json.dump`` with one writes token by
    token in Python."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload_to_json(kind, obj), ensure_ascii=False) + "\n")


def _unique_keys(pairs: List[Tuple[str, object]]) -> dict:
    """A JSON object as a dict; a repeated key is an error, not a silent overwrite."""
    d = dict(pairs)
    if len(d) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r} in a JSON object")
    return d


def load_instance_file(path: str) -> Tuple[str, object]:
    with open(path, "r", encoding="utf-8") as fh:
        return payload_from_json(json.load(fh, object_pairs_hook=_unique_keys))
