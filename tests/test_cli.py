import hashlib
import json
import random

import pytest

from etacomplex.base import EtaPower, Graded, GradedMorphism, GradedObject, ScalarEta
from etacomplex import cli, complexes, suite
from etacomplex.cli import main
from etacomplex.complexes import (
    ChainMap,
    Complex,
    LinearProblem,
    cone,
    id_chain_map,
    normalize_exact_pair,
    validate_complex,
    zero_chain_map,
)
from etacomplex.generators import (
    obstructed_delta_complex,
    random_chain_map,
    random_complex,
    random_delta_complex,
    random_delta_map,
    random_gsystem,
    random_std_conflation,
)
from etacomplex.gsystems import DeltaComplex, DeltaMap, GSystem, phi, psi_inv
from etacomplex.matrix import RingMatrix
from etacomplex.rings import GF, QQ, ZZ, Zmod
from etacomplex.serialize import (
    chain_map_from_json,
    complex_from_json,
    load_instance_file,
    payload_from_json,
    payload_to_json,
    save_instance_file,
)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def records_of(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


class TestSerializeRoundTrip:
    def test_complex_kinds(self):
        rng = random.Random(70)
        for inst in (ScalarEta(Zmod(4), 2), Graded(ScalarEta(GF(5), 1))):
            c = random_complex(inst, rng)
            k, c2 = payload_from_json(
                json.loads(json.dumps(payload_to_json("complex", c)))
            )
            assert k == "complex" and c2 == c
            f = random_chain_map(c, random_complex(inst, rng), rng)
            g = random_chain_map(f.source, f.target, rng)
            k, (f2, g2) = payload_from_json(
                json.loads(json.dumps(payload_to_json("chain-maps", (f, g))))
            )
            assert f2 == f and g2 == g

    def test_pair_kind(self):
        rng = random.Random(71)
        defl = random_std_conflation(ScalarEta(Zmod(8), 2), rng)
        k, (i2, p2) = payload_from_json(
            payload_to_json("pair", (defl.i, defl.p))
        )
        assert i2 == defl.i and p2 == defl.p

    def test_bigraded_kinds(self):
        rng = random.Random(72)
        for ring in (ZZ, Zmod(9)):
            x = random_gsystem(ring, rng)
            k, x2 = payload_from_json(payload_to_json("gsystem", x))
            assert x2 == x
            d = random_delta_complex(ring, rng)
            k, d2 = payload_from_json(payload_to_json("delta-complex", d))
            assert (d2.ranks, d2.delta0, d2.delta1) == (d.ranks, d.delta0, d.delta1)
            m = random_delta_map(d, random_delta_complex(ring, rng), rng)
            k, m2 = payload_from_json(payload_to_json("delta-map", m))
            assert m2.components == m.components

    def test_canonical_after_one_pass(self, tmp_path):
        rng = random.Random(73)
        x = random_delta_complex(Zmod(4), rng)
        p = tmp_path / "x.json"
        save_instance_file(str(p), "delta-complex", x)
        first = p.read_text(encoding="utf-8")
        kind, back = load_instance_file(str(p))
        save_instance_file(str(p), kind, back)
        assert p.read_text(encoding="utf-8") == first

    def test_eta_power_complex(self, tmp_path):
        rng = random.Random(74)
        p = tmp_path / "c.json"
        for inst in (EtaPower(ScalarEta(Zmod(8), 2), 2), EtaPower(Graded(ScalarEta(GF(5), 1)), 3)):
            for _ in range(3):
                c = random_complex(inst, rng)
                save_instance_file(str(p), "complex", c)
                kind, back = load_instance_file(str(p))
                assert kind == "complex" and back == c and back.instance == inst

    def test_bad_format_tag(self):
        with pytest.raises(ValueError):
            payload_from_json({"format": "other/9", "kind": "complex", "payload": {}})

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            payload_to_json("nonsense", None)


class TestGen:
    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for p in (a, b):
            assert main(["gen", "--seed", "5", "--profile", "pair", "-o", str(p), "--ring", "Z/4"]) == 0
        assert a.read_text() == b.read_text()

    def test_profiles_validate(self, tmp_path):
        for profile in ("scalar-eta", "graded", "gsystem", "delta", "pair", "chain-maps", "delta-map"):
            p = tmp_path / f"{profile}.json"
            code = main(["gen", "--seed", "9", "--profile", profile, "-o", str(p), "--ring", "Z/8"])
            assert code == 0
            kind, obj = load_instance_file(str(p))

    def test_empty_complex_at_len_zero(self, tmp_path):
        p = tmp_path / "e.json"
        assert main(["gen", "--seed", "1", "--profile", "scalar-eta", "-o", str(p), "--max-len", "0"]) == 0
        assert json.loads(p.read_text())["payload"]["objects"] == []

    def test_env_var_default_ring(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ETACOMPLEX_RING", "F5")
        p = tmp_path / "f5.json"
        assert main(["gen", "--seed", "2", "--profile", "gsystem", "-o", str(p)]) == 0
        assert json.loads(p.read_text())["payload"]["ring"] == {"kind": "GF", "modulus": 5}

    def test_bad_ring_is_usage_error(self, tmp_path):
        p = tmp_path / "x.json"
        assert main(["gen", "--seed", "1", "--profile", "gsystem", "-o", str(p), "--ring", "nope"]) == 2

    def test_large_prime_field(self, tmp_path, capsys):
        """GF(2^61 - 1) is recognized at once, by gen and in a check file."""
        p = tmp_path / "big.json"
        assert main(["gen", "--seed", "1", "--profile", "chain-maps", "-o", str(p),
                     "--ring", "F2305843009213693951"]) == 0
        assert main(["check", str(p), "--op", "eta-homotopic"]) in (0, 1)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("modulus", [(2 ** 61 - 1) * (2 ** 19 - 1), 2 ** 89 - 1])
    def test_large_gf_modulus_exit_two(self, tmp_path, capsys, modulus):
        """A composite below the Miller-Rabin bound, and a prime above it."""
        p = tmp_path / "x.json"
        assert main(["gen", "--seed", "1", "--profile", "chain-maps", "-o", str(p),
                     "--ring", f"F{modulus}"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert main(["gen", "--seed", "1", "--profile", "chain-maps", "-o", str(p),
                     "--ring", "F5"]) == 0
        p.write_text(p.read_text().replace('"modulus": 5', f'"modulus": {modulus}'))
        assert main(["check", str(p), "--op", "eta-homotopic"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("modulus", [2 ** 61 - 1, (2 ** 31 - 1) * (2 ** 31 - 19)])
    def test_large_zmod_modulus(self, tmp_path, capsys, modulus):
        """Z/m with a large prime factor is factored at once, by gen and check."""
        p = tmp_path / "big.json"
        for profile, op in (("chain-maps", "eta-homotopic"), ("pair", "is-eta-conflation"),
                            ("delta-map", "triangle-check")):
            assert main(["gen", "--seed", "1", "--profile", profile, "-o", str(p),
                         "--ring", f"Z/{modulus}"]) == 0
            assert main(["check", str(p), "--op", op]) in (0, 1)
            assert "Traceback" not in capsys.readouterr().err

    def test_zmod_modulus_above_bound_exit_two(self, tmp_path, capsys):
        p = tmp_path / "x.json"
        assert main(["gen", "--seed", "1", "--profile", "chain-maps", "-o", str(p),
                     "--ring", f"Z/{2 ** 89 - 1}"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert main(["gen", "--seed", "1", "--profile", "chain-maps", "-o", str(p), "--ring", "Z/4"]) == 0
        p.write_text(p.read_text().replace('"modulus": 4', f'"modulus": {2 ** 89 - 1}'))
        assert main(["check", str(p), "--op", "eta-homotopic"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("ring", ["Z", "Z/4", "Q"])
    def test_chain_maps_pose_unknowns(self, tmp_path, capsys, monkeypatch, ring):
        """The eta-homotopic system of every generated chain-maps file has an unknown."""
        cols = []
        solve = LinearProblem.solve

        def recording(prob):
            cols.append(prob.cols)
            return solve(prob)

        monkeypatch.setattr(LinearProblem, "solve", recording)
        p = tmp_path / "maps.json"
        for size in ([], ["--max-len", "4", "--max-rank", "6"]):
            for seed in range(1, 9):
                argv = ["gen", "--seed", str(seed), "--profile", "chain-maps", "--ring", ring, "-o", str(p)]
                assert main(argv + size) == 0
                cols.clear()
                assert main(["check", str(p), "--op", "eta-homotopic"]) in (0, 1)
                assert cols == [cols[0]] and cols[0] >= 1, (seed, size)
        capsys.readouterr()

    @pytest.mark.parametrize("ring", ["Z", "Z/8", "F5"])
    def test_pairs_pose_unknowns(self, tmp_path, capsys, monkeypatch, ring):
        """After the split, is-eta-conflation on every generated pair file
        (eta = 2) poses the unknowns of the route its instance takes: over
        Z/8, where 2 is a zero-divisor, one Kronecker system in alpha and t,
        which gen makes nonempty; over Z one system over GF(2) whose unknowns
        are exactly the t^n: W^n -> X^{n-1} (some files have one); over F5,
        where 2 is a unit, none."""
        posed = []
        solve = LinearProblem.solve

        def recording(prob):
            posed.append(prob)
            return solve(prob)

        monkeypatch.setattr(LinearProblem, "solve", recording)
        p = tmp_path / "pair.json"
        with_t = 0
        for size in ([], ["--max-len", "4", "--max-rank", "6"]):
            for seed in range(1, 9):
                argv = ["gen", "--seed", str(seed), "--profile", "pair", "--ring", ring, "-o", str(p)]
                assert main(argv + size) == 0
                _, (i, pr) = load_instance_file(str(p))
                posed.clear()
                h = normalize_exact_pair(i, pr).h
                split = len(posed)
                posed.clear()
                assert main(["check", str(p), "--op", "is-eta-conflation"]) in (0, 1)
                factor = posed[split:]
                if ring == "F5":
                    assert factor == [], (seed, size)
                elif ring == "Z/8":
                    assert len(factor) == 1 and factor[0].cols >= 1, (seed, size)
                else:
                    W, X = h.source, h.target
                    t_keys = [("t", n, 0) for n in W.support if X.obj(n - 1)]
                    assert len(factor) == 1 and factor[0].instance == ScalarEta(GF(2), 0), (seed, size)
                    assert list(factor[0].unknowns) == t_keys, (seed, size)
                    with_t += bool(t_keys)
        assert ring != "Z" or with_t
        capsys.readouterr()

    def test_pairs_need_one_degree(self, tmp_path, capsys):
        p = tmp_path / "pair.json"
        assert main(["gen", "--seed", "1", "--profile", "pair", "-o", str(p), "--max-len", "0"]) == 2
        assert "--max-len" in capsys.readouterr().err
        assert not p.exists()

    def test_chain_maps_need_two_degrees(self, tmp_path, capsys):
        p = tmp_path / "maps.json"
        assert main(["gen", "--seed", "1", "--profile", "chain-maps", "-o", str(p), "--max-len", "1"]) == 2
        assert "--max-len" in capsys.readouterr().err
        assert not p.exists()


class TestCheck:
    def test_conflation_pass(self, tmp_path, capsys):
        p = tmp_path / "pair.json"
        main(["gen", "--seed", "5", "--profile", "pair", "-o", str(p), "--ring", "Z/4"])
        code, out = run(capsys, ["check", str(p), "--op", "is-eta-conflation"])
        assert code == 0
        rec = records_of(out)[0]
        assert rec["verdict"] == "SOME" and "witness" in rec

    def test_non_conflation_exit_one(self, tmp_path, capsys):
        # invariant [1] cannot factor through the twist scalar 2 on stalks
        inst = ScalarEta(Zmod(4), 2)
        x = Complex(inst, {0: 1}, {})
        f = ChainMap(x, x, {0: RingMatrix.from_rows(Zmod(4), [[1]])})
        c, i, pr = cone(f)
        p = tmp_path / "bad-pair.json"
        save_instance_file(str(p), "pair", (i, pr))
        code, out = run(capsys, ["check", str(p), "--op", "is-eta-conflation"])
        assert code == 1
        assert records_of(out)[0]["verdict"] == "NONE"

    def test_eta_homotopic_both_verdicts(self, tmp_path, capsys):
        inst = ScalarEta(Zmod(4), 2)
        x = Complex(inst, {0: 1}, {})
        ident = ChainMap(x, x, {0: RingMatrix.from_rows(Zmod(4), [[1]])})
        zero = zero_chain_map(x, x)
        good = tmp_path / "hom.json"
        save_instance_file(str(good), "chain-maps", (ident, ident))
        code, out = run(capsys, ["check", str(good), "--op", "eta-homotopic"])
        assert code == 0 and records_of(out)[0]["verdict"] == "SOME"
        bad = tmp_path / "nohom.json"
        save_instance_file(str(bad), "chain-maps", (ident, zero))
        code, out = run(capsys, ["check", str(bad), "--op", "eta-homotopic"])
        assert code == 1 and records_of(out)[0]["verdict"] == "NONE"

    def test_theta_extend_and_obstruction(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        main(["gen", "--seed", "7", "--profile", "delta", "-o", str(good), "--ring", "Z/9"])
        code, out = run(capsys, ["check", str(good), "--op", "theta-extend"])
        assert code == 0 and records_of(out)[0]["verdict"] == "PASS"
        bad = tmp_path / "bad.json"
        save_instance_file(str(bad), "delta-complex", obstructed_delta_complex(GF(5)))
        code, out = run(capsys, ["check", str(bad), "--op", "theta-extend"])
        assert code == 1
        rec = records_of(out)[0]
        assert rec["verdict"] == "OBSTRUCTED" and rec["obstruction"]["level"] == 1

    def test_phi_and_triangle(self, tmp_path, capsys):
        d = tmp_path / "d.json"
        main(["gen", "--seed", "8", "--profile", "delta", "-o", str(d), "--ring", "Z/4"])
        assert run(capsys, ["check", str(d), "--op", "phi"])[0] == 0
        dm = tmp_path / "dm.json"
        main(["gen", "--seed", "9", "--profile", "delta-map", "-o", str(dm), "--ring", "Z/9"])
        code, out = run(capsys, ["check", str(dm), "--op", "triangle-check"])
        assert code in (0, 1)  # morphism extension may report an obstruction
        assert records_of(out)[0]["verdict"] in ("PASS", "OBSTRUCTED")

    def test_totalize(self, tmp_path, capsys):
        gs = tmp_path / "gs.json"
        main(["gen", "--seed", "3", "--profile", "gsystem", "-o", str(gs), "--ring", "Z"])
        code, out = run(capsys, ["check", str(gs), "--op", "totalize"])
        assert code == 0
        assert records_of(out)[0]["verdict"] == "PASS"

    def test_totalize_complex_file(self, tmp_path, capsys):
        good = tmp_path / "graded.json"
        main(["gen", "--seed", "3", "--profile", "graded", "-o", str(good), "--ring", "Z/4"])
        code, out = run(capsys, ["check", str(good), "--op", "totalize"])
        rec = records_of(out)[0]
        assert code == 0 and rec["verdict"] == "PASS"
        tot = complex_from_json(rec["result"])
        assert not tot.is_zero() and validate_complex(tot)
        # d^1 d^0 = Id on a graded stalk repeated in three degrees
        inst = Graded(ScalarEta(Zmod(4), 1))
        v = GradedObject({0: 1})
        bad = tmp_path / "bad.json"
        save_instance_file(str(bad), "complex", Complex(
            inst, {n: v for n in range(3)}, {0: inst.id_mor(v), 1: inst.id_mor(v)}
        ))
        code, out = run(capsys, ["check", str(bad), "--op", "totalize"])
        assert code == 1
        assert records_of(out) == [{"check": "totalize", "verdict": "FAIL", "detail": "d^2 != 0"}]
        scalar = tmp_path / "scalar.json"
        main(["gen", "--seed", "3", "--profile", "scalar-eta", "-o", str(scalar), "--ring", "Z/4"])
        assert main(["check", str(scalar), "--op", "totalize"]) == 2
        assert "graded instance" in capsys.readouterr().err

    def test_phi_on_delta_map(self, tmp_path, capsys):
        x = random_delta_complex(Zmod(4), random.Random(40000))
        ident = DeltaMap(x, x, {pos: RingMatrix.identity(Zmod(4), r) for pos, r in x.ranks.items()})
        p = tmp_path / "dm.json"
        save_instance_file(str(p), "delta-map", ident)
        code, out = run(capsys, ["check", str(p), "--op", "phi"])
        rec = records_of(out)[0]
        assert code == 0 and rec["verdict"] == "PASS"
        total = phi(x)
        assert not total.is_zero()
        assert chain_map_from_json(rec["result"]) == id_chain_map(total)

    def test_axioms(self, tmp_path, capsys):
        p = tmp_path / "pair.json"
        main(["gen", "--seed", "5", "--profile", "pair", "-o", str(p), "--ring", "Z/8"])
        code, out = run(capsys, ["check", str(p), "--op", "axioms", "--seed", "2"])
        assert code == 0
        recs = records_of(out)
        # recognition, (Ex0), then one record per closure axiom in table order
        assert [r["check"] for r in recs] == \
            ["axioms/recognized", "axioms/ex0"] + [f"axioms/{name}" for name in suite.AXIOMS]
        assert list(suite.AXIOMS) == ["ex1", "ex1-op", "ex2", "ex2-op"]
        assert all(r["verdict"] == "PASS" for r in recs)

    def test_axioms_on_non_conflation(self, tmp_path, capsys):
        # the standard pair of cone(id_X) has invariant id_X, which cannot
        # factor through the twist scalar 2 over Z
        inst = ScalarEta(ZZ, 2)
        x = Complex(inst, {0: 1}, {})
        _, i, pr = cone(id_chain_map(x))
        p = tmp_path / "pair.json"
        save_instance_file(str(p), "pair", (i, pr))
        code, out = run(capsys, ["check", str(p), "--op", "axioms"])
        assert code == 1
        assert records_of(out) == [
            {"check": "axioms", "verdict": "NONE", "detail": "pair is not a conflation"}
        ]

    def test_axioms_on_pair_not_chainwise_split(self, tmp_path, capsys):
        # i = p = [1] between stalks: p . i != 0
        x = Complex(ScalarEta(ZZ, 2), {0: 1}, {})
        one = ChainMap(x, x, {0: RingMatrix.from_rows(ZZ, [[1]])})
        p = tmp_path / "pair.json"
        save_instance_file(str(p), "pair", (one, one))
        code, out = run(capsys, ["check", str(p), "--op", "axioms"])
        assert code == 1
        [rec] = records_of(out)
        assert rec["check"] == "axioms" and rec["verdict"] == "NONE"
        assert rec["detail"].startswith("not chainwise split")

    def test_totalize_gsystem_failing_relations(self, tmp_path, capsys):
        # Z -> Z -> Z with both level-0 maps 1: d_0 d_0 != 0
        one = RingMatrix.from_rows(ZZ, [[1]])
        x = GSystem(ZZ, {(i, 0): 1 for i in range(3)}, {(0, 0, 0): one, (0, 1, 0): one})
        p = tmp_path / "gs.json"
        save_instance_file(str(p), "gsystem", x)
        code, out = run(capsys, ["check", str(p), "--op", "totalize"])
        assert code == 1
        assert records_of(out) == [
            {"check": "totalize", "verdict": "FAIL", "detail": "input relations fail"}
        ]

    def test_totalize_ga_gsystem_exit_two(self, tmp_path, capsys):
        x = psi_inv(random_gsystem(Zmod(4), random.Random(3)))
        p = tmp_path / "ga.json"
        save_instance_file(str(p), "gsystem", x)
        assert main(["check", str(p), "--op", "totalize"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("op", ["phi", "triangle-check"])
    @pytest.mark.parametrize("bad_end", ["source", "target"])
    def test_invalid_delta_map_end_fails(self, tmp_path, capsys, op, bad_end):
        # a column whose delta0 squares to the identity completes to no system
        ranks = {(0, 0): 1, (1, 0): 1, (2, 0): 1}
        one = RingMatrix.from_rows(Zmod(4), [[1]])
        bad = DeltaComplex(Zmod(4), ranks, {(0, 0): one, (1, 0): one}, {})
        good = DeltaComplex(Zmod(4), ranks, {}, {})
        ends = (bad, good) if bad_end == "source" else (good, bad)
        p = tmp_path / "dm.json"
        save_instance_file(str(p), "delta-map", DeltaMap(*ends, {}))
        code, out = run(capsys, ["check", str(p), "--op", op])
        assert code == 1
        rec = records_of(out)[0]
        assert rec["verdict"] == "FAIL"
        assert rec["detail"] == "input is not a valid completion problem"

    @pytest.mark.parametrize("kind, op", [
        ("chain-maps", "eta-homotopic"),
        ("pair", "is-eta-conflation"),
        ("gsystem", "totalize"),
        ("delta-complex", "theta-extend"),
        ("delta-map", "phi"),
    ])
    def test_negative_rank_exit_two(self, tmp_path, capsys, kind, op):
        """Every rank 1 in a stalk instance of the kind is rewritten to -1, then to 1.5."""
        ring = Zmod(4)
        stalk = Complex(ScalarEta(ring, 2), {0: 1}, {})
        zero = zero_chain_map(stalk, stalk)
        delta = DeltaComplex(ring, {(0, 0): 1}, {}, {})
        obj = {
            "chain-maps": (zero, zero),
            "pair": (zero, zero),
            "gsystem": GSystem(ring, {(0, 0): 1}, {}),
            "delta-complex": delta,
            "delta-map": DeltaMap(delta, delta, {}),
        }[kind]
        p = tmp_path / "neg.json"
        save_instance_file(str(p), kind, obj)
        original = p.read_text()
        for value in (-1, 1.5):
            edited = []

            def edit(node):
                if isinstance(node, dict):
                    for key in ("object", "rank"):
                        if node.get(key) == 1:
                            node[key] = value
                            edited.append(node)
                    for v in node.values():
                        edit(v)
                elif isinstance(node, list):
                    for v in node:
                        edit(v)

            doc = json.loads(original)
            edit(doc)
            assert edited
            p.write_text(json.dumps(doc))
            assert main(["check", str(p), "--op", op]) == 2
            assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("case, op, code", [
        ("endpoints", "eta-homotopic", 2),
        ("legs", "is-eta-conflation", 2),
        ("legs", "axioms", 2),
        ("extra-row", "eta-homotopic", 2),
        ("component-ring", "eta-homotopic", 2),
        ("delta1-ring", "theta-extend", 2),
        ("gsystem-ring", "totalize", 2),
        ("fractional-degree", "eta-homotopic", 2),
        ("graded-ranks-list", "totalize", 2),
        ("grade-underscore", "totalize", 2),
        ("grade-space", "totalize", 2),
        ("entry-underscore", "eta-homotopic", 2),
        ("entry-space", "eta-homotopic", 2),
        ("entry-plus", "eta-homotopic", 2),
        ("entry-non-ascii-digit", "eta-homotopic", 2),
        ("entry-fraction-over-z4", "eta-homotopic", 2),
        ("q-entry-underscore", "eta-homotopic", 2),
        ("q-denominator-plus", "eta-homotopic", 2),
        ("nonzero-p-i", "is-eta-conflation", 1),
        ("repeated-delta1", "theta-extend", 2),
        ("repeated-delta-rank", "theta-extend", 2),
        ("repeated-gsystem-diff", "totalize", 2),
        ("repeated-object-degree", "totalize", 2),
        ("repeated-diff-degree", "totalize", 2),
        ("repeated-graded-component", "totalize", 2),
        ("repeated-chain-map-degree", "eta-homotopic", 2),
        ("repeated-delta-map-position", "phi", 2),
        ("repeated-grade", "totalize", 2),
    ])
    def test_inconsistent_instance(self, tmp_path, capsys, case, op, code):
        """Hand-edited Z/4 and Q files: a structural inconsistency or a matrix entry
        that is not the string of a ring element exits 2, and p i != 0 answers NONE."""
        ring = Zmod(4)
        one = RingMatrix.from_rows(ring, [[1]])
        a, b = (Complex(ScalarEta(ring, 2), {0: r}, {}) for r in (1, 2))
        ident = ChainMap(a, a, {0: one})

        def matrix(doc, *path):
            node = doc["payload"]
            for key in path:
                node = node[key]
            return node

        def extra_row(doc):
            m = matrix(doc, "f", "components", 0, "morphism")
            m["rows"], m["entries"] = 2, m["entries"] + ["0"]

        def degrees(node):
            if isinstance(node, dict):
                if node.get("degree") == 0:
                    node["degree"] = 0.5
                for v in node.values():
                    degrees(v)
            elif isinstance(node, list):
                for v in node:
                    degrees(v)

        def entry(value):
            def edit(doc):
                matrix(doc, "f", "components", 0, "morphism")["entries"][0] = value
            return edit

        qa = Complex(ScalarEta(QQ, 2), {0: 1}, {})
        q_ident = ChainMap(qa, qa, {0: RingMatrix.from_rows(QQ, [[1]])})
        z8 = Zmod(8).to_json()
        graded = Complex(Graded(ScalarEta(ring, 2)), {0: GradedObject({2: 1, 10: 1})}, {})

        def graded_ranks(ranks):
            return lambda doc: matrix(doc, "objects", 0, "object").update(ranks=ranks)

        def repeat(*path, entries=None):
            """Append a copy of the first entry of a list, with its matrix entries replaced if given."""
            def edit(doc):
                items = matrix(doc, *path)
                twin = json.loads(json.dumps(items[0]))
                if entries is not None:
                    twin["matrix"]["entries"] = entries
                items.append(twin)
            return edit

        delta = DeltaComplex(ring, {(0, 0): 1, (0, 1): 1}, {}, {(0, 0): one})
        stalk = DeltaComplex(ring, {(0, 0): 1}, {}, {})
        g1 = GradedObject({0: 1})
        graded_d = Complex(Graded(ScalarEta(ring, 2)), {0: g1, 1: g1}, {0: GradedMorphism(g1, g1, {(0, 0): one})})

        kind, obj, edit = {
            "endpoints": ("chain-maps", (zero_chain_map(a, a), zero_chain_map(b, a)), None),
            "legs": ("pair", (zero_chain_map(a, a), zero_chain_map(b, a)), None),
            "extra-row": ("chain-maps", (ident, ident), extra_row),
            "component-ring": ("chain-maps", (ident, ident), lambda doc: matrix(
                doc, "f", "components", 0, "morphism").update(ring=z8)),
            "delta1-ring": ("delta-complex", DeltaComplex(ring, {(0, 0): 1, (0, 1): 1}, {}, {(0, 0): one}),
                            lambda doc: matrix(doc, "delta1", 0, "matrix").update(ring=z8)),
            "gsystem-ring": ("gsystem", GSystem(ring, {(0, 0): 1, (1, 0): 1}, {(0, 0, 0): one}),
                             lambda doc: matrix(doc, "diffs", 0, "matrix").update(ring=z8)),
            "fractional-degree": ("chain-maps", (ident, ident), degrees),
            "graded-ranks-list": ("complex", graded, graded_ranks([["2", 1], ["10", 1]])),
            "grade-underscore": ("complex", graded, graded_ranks({"2": 1, "1_0": 1})),
            "grade-space": ("complex", graded, graded_ranks({" 2": 1, "10": 1})),
            # int() would read all but the fraction over Z/4
            "entry-underscore": ("chain-maps", (ident, ident), entry("1_0")),
            "entry-space": ("chain-maps", (ident, ident), entry(" 1 ")),
            "entry-plus": ("chain-maps", (ident, ident), entry("+1")),
            "entry-non-ascii-digit": ("chain-maps", (ident, ident), entry("\u0663")),
            "entry-fraction-over-z4": ("chain-maps", (ident, ident), entry("2/2")),
            "q-entry-underscore": ("chain-maps", (q_ident, q_ident), entry("1_0/3")),
            "q-denominator-plus": ("chain-maps", (q_ident, q_ident), entry("1/+3")),
            "nonzero-p-i": ("pair", (ident, ident), None),
            # the last of two entries used to win: delta1 = [2] answered PASS
            "repeated-delta1": ("delta-complex", delta, repeat("delta1", entries=["2"])),
            "repeated-delta-rank": ("delta-complex", delta, repeat("ranks")),
            "repeated-gsystem-diff": ("gsystem", GSystem(ring, {(0, 0): 1, (1, 0): 1}, {(0, 0, 0): one}),
                                      repeat("diffs")),
            "repeated-object-degree": ("complex", graded, repeat("objects")),
            "repeated-diff-degree": ("complex", graded_d, repeat("diffs")),
            "repeated-graded-component": ("complex", graded_d, repeat("diffs", 0, "morphism", "components")),
            "repeated-chain-map-degree": ("chain-maps", (ident, ident), repeat("f", "components")),
            "repeated-delta-map-position": ("delta-map", DeltaMap(stalk, stalk, {(0, 0): one}),
                                            repeat("components")),
            # the last of two keys used to win: {"2": 1, "2": 3} read as rank 3 and answered PASS
            "repeated-grade": ("complex", graded, None),
        }[case]
        p = tmp_path / "edited.json"
        save_instance_file(str(p), kind, obj)
        doc = json.loads(p.read_text())
        if edit is not None:
            edit(doc)
        p.write_text(json.dumps(doc))
        if case == "repeated-grade":  # a dict holds one of each key, so repeat it in the text
            assert p.read_text().count('"10": 1') == 1
            p.write_text(p.read_text().replace('"10": 1', '"2": 3'))
        assert main(["check", str(p), "--op", op]) == code
        captured = capsys.readouterr()
        if code == 2:
            assert captured.err.startswith("error: ")
        else:
            rec = records_of(captured.out)[0]
            assert rec["verdict"] == "NONE" and rec["detail"].startswith("not chainwise split")

    @pytest.mark.parametrize("case, op", [
        ("d-squared", "eta-homotopic"),
        ("not-chain-maps", "is-eta-conflation"),
        ("not-chain-maps", "axioms"),
        ("bad-target", "eta-homotopic"),
    ])
    def test_invalid_maps_fail(self, tmp_path, capsys, case, op):
        """A complex with d^2 != 0 or a map that is not a chain map answers FAIL
        with exit 1; each used to answer SOME (and every axiom PASS) with exit 0."""
        def m(*rows):
            return RingMatrix.from_rows(ZZ, list(rows))

        inst = ScalarEta(ZZ, 2)
        x = Complex(ScalarEta(ZZ, 1), {0: 1, 1: 1, 2: 1}, {0: m([1]), 1: m([1])})
        a = Complex(inst, {0: 1}, {})
        y = Complex(inst, {0: 2, 1: 1}, {0: m([1, 0])})
        z = Complex(inst, {0: 1, 1: 1}, {0: m([1])})
        kind, obj = {
            # X = Z -1-> Z -1-> Z, f = {0: 1, 1: 1}, g = 0
            "d-squared": ("chain-maps", (ChainMap(x, x, {0: m([1]), 1: m([1])}), ChainMap(x, x, {}))),
            # i = [1; 0] and p = ([0 1], 1) between valid complexes
            "not-chain-maps": ("pair", (ChainMap(a, y, {0: m([1], [0])}), ChainMap(y, z, {0: m([0, 1]), 1: m([1])}))),
            # valid source, d^2 != 0 only in the target
            "bad-target": ("chain-maps", (ChainMap(Complex(x.instance, {0: 1}, {}), x, {}),) * 2),
        }[case]
        p = tmp_path / "in.json"
        save_instance_file(str(p), kind, obj)
        code, out = run(capsys, ["check", str(p), "--op", op])
        assert code == 1
        assert records_of(out) == [{"check": op, "verdict": "FAIL", "detail": "input is not a pair of chain maps"}]

    @staticmethod
    def _pair_with_y_twice(path):
        """A pair 0 -> Y -> Y (p = Id) over Z with Y = Z -3-> Z in degrees 0, 1;
        the file holds Y twice, as i's target and as p's source."""
        inst = ScalarEta(ZZ, 2)
        y = Complex(inst, {0: 1, 1: 1}, {0: RingMatrix.from_rows(ZZ, [[3]])})
        save_instance_file(str(path), "pair", (ChainMap(Complex(inst, {}, {}), y, {}), id_chain_map(y)))
        return json.loads(path.read_text())

    def test_repeated_complex_read_once(self, tmp_path):
        """Each distinct complex sub-document of a file is read once: the copies
        of Y in a pair file, and of X and Y in a chain-maps file, load as one
        Complex each."""
        p = tmp_path / "pair.json"
        self._pair_with_y_twice(p)
        _, (i, q) = load_instance_file(str(p))
        assert i.target is q.source and q.source is q.target
        rng = random.Random(14)
        inst = ScalarEta(Zmod(8), 2)
        x, y = random_complex(inst, rng), random_complex(inst, rng)
        save_instance_file(str(p), "chain-maps", (random_chain_map(x, y, rng), random_chain_map(x, y, rng)))
        _, (f, g) = load_instance_file(str(p))
        assert f.source is g.source and f.target is g.target
        assert f.source == x and f.target == y

    @pytest.mark.parametrize("edit", ["degree-true", "degree-float", "entry-plus"])
    def test_repeated_complex_matched_by_type(self, tmp_path, capsys, edit):
        """A second copy of Y that equals the first as Python values, with its
        degree 1 written true or 1.0, is not taken for the first: it is read on
        its own and rejected (exit 2), as is one with its entry 3 written "+3"."""
        p = tmp_path / "pair.json"
        doc = self._pair_with_y_twice(p)
        assert main(["check", str(p), "--op", "is-eta-conflation"]) == 0
        y2 = doc["payload"]["p"]["source"]
        assert y2 == doc["payload"]["i"]["target"]
        if edit == "entry-plus":
            m = y2["diffs"][0]["morphism"]
            assert m["entries"] == ["3"]
            m["entries"] = ["+3"]
        else:
            obj = next(e for e in y2["objects"] if e["degree"] == 1)
            obj["degree"] = True if edit == "degree-true" else 1.0
            assert y2 == doc["payload"]["i"]["target"]  # 1 == 1.0 == True
        p.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["check", str(p), "--op", "is-eta-conflation"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_parser_built_once(self, tmp_path, capsys):
        """main reuses one parser, which still parses after it rejected an argument list."""
        assert cli.build_parser() is cli.build_parser()
        assert main(["check"]) == 2
        assert main(["gen", "--seed", "1", "--profile", "gsystem", "-o", str(tmp_path / "g.json")]) == 0

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert run(capsys, ["check", str(bad), "--op", "totalize"])[0] == 2

    @pytest.mark.parametrize("where", ["r", "entry"])
    def test_zero_denominator_exit_two(self, tmp_path, capsys, where):
        """A rational "1/0", as the twist r over Q or as a Q matrix entry."""
        p = tmp_path / "maps.json"
        assert main(["gen", "--seed", "1", "--profile", "chain-maps", "--ring", "Q",
                     "-o", str(p), "--max-len", "2", "--max-rank", "2"]) == 0
        doc = json.loads(p.read_text())
        edited = []

        def edit(node):
            if isinstance(node, dict):
                if where == "r" and "r" in node:
                    node["r"] = "1/0"
                    edited.append(node)
                if where == "entry" and node.get("entries") and not edited:
                    node["entries"][0] = "1/0"
                    edited.append(node)
                for v in node.values():
                    edit(v)
            elif isinstance(node, list):
                for v in node:
                    edit(v)

        edit(doc)
        assert edited
        p.write_text(json.dumps(doc))
        assert main(["check", str(p), "--op", "eta-homotopic"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("ring, case", [
        (ring, case) for ring in (ZZ, Zmod(4)) for case in (
            "float-entry", "bool-entry", "number-entry", "string-entries", "float-rows",
            "float-cols", "float-r")
    ] + [(Zmod(4), "float-modulus")], ids=str)
    def test_matrix_entries_parsed_exactly(self, tmp_path, capsys, ring, case):
        """A matrix entry or twist that is not a string, or a non-integer shape
        or modulus, exits 2 instead of being truncated."""
        one = RingMatrix.from_rows(ring, [[1]])
        a = Complex(ScalarEta(ring, 2), {0: 1}, {})
        ident = ChainMap(a, a, {0: one})
        p = tmp_path / "edited.json"
        save_instance_file(str(p), "chain-maps", (ident, ident))
        doc = json.loads(p.read_text())
        m = doc["payload"]["f"]["components"][0]["morphism"]
        if case == "float-modulus":
            def edit(node):
                if isinstance(node, dict):
                    if "modulus" in node:
                        node["modulus"] = float(node["modulus"])
                    for v in node.values():
                        edit(v)
                elif isinstance(node, list):
                    for v in node:
                        edit(v)

            edit(doc)
        else:
            node, key, value = {
                "float-entry": (m["entries"], 0, 1.5),
                "bool-entry": (m["entries"], 0, True),
                "number-entry": (m["entries"], 0, 1),
                "string-entries": (m, "entries", "1"),
                "float-rows": (m, "rows", 1.0),
                "float-cols": (m, "cols", 1.0),
                "float-r": (doc["payload"]["f"]["source"]["instance"], "r", 2.5),
            }[case]
            node[key] = value
        p.write_text(json.dumps(doc))
        assert main(["check", str(p), "--op", "eta-homotopic"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("text", ["[]", '"str"'])
    def test_json_not_an_object_exit_two(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["check", str(bad), "--op", "totalize"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_directory_exit_two(self, tmp_path, capsys):
        assert main(["check", str(tmp_path), "--op", "phi"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unwritable_output_exit_two(self, tmp_path, capsys, monkeypatch):
        p = tmp_path / "pair.json"
        missing = str(tmp_path / "missing" / "out.json")
        assert main(["gen", "--seed", "5", "--profile", "pair", "-o", missing]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        main(["gen", "--seed", "5", "--profile", "pair", "-o", str(p), "--ring", "Z/4"])
        assert main(["check", str(p), "--op", "is-eta-conflation", "-o", missing]) == 2
        assert capsys.readouterr().err.startswith("error: ")

        # the report path is tried before the check or suite runs
        def not_called(*args):
            raise AssertionError("ran before the report path was opened")

        monkeypatch.setattr(cli, "cmd_check", not_called)
        monkeypatch.setattr(cli, "cmd_suite", not_called)
        assert main(["check", str(p), "--op", "is-eta-conflation", "-o", missing]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write ")
        assert main(["suite", "--seed", "1", "--trials", "1", "-o", missing]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write ")

    @pytest.mark.parametrize("flags", [["--max-len", "-2"], ["--max-rank", "-1"], ["--max-rank", "0"]])
    def test_bad_gen_size_exit_two(self, tmp_path, capsys, flags):
        p = tmp_path / "x.json"
        assert main(["gen", "--seed", "1", "--profile", "pair", "-o", str(p)] + flags) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not p.exists()

    def test_wrong_kind_exit_two(self, tmp_path, capsys):
        p = tmp_path / "pair.json"
        main(["gen", "--seed", "5", "--profile", "pair", "-o", str(p), "--ring", "Z/4"])
        assert run(capsys, ["check", str(p), "--op", "theta-extend"])[0] == 2

    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert run(capsys, ["check", str(tmp_path / "nope.json"), "--op", "phi"])[0] == 2

    def test_unknown_op_exit_two(self, tmp_path, capsys):
        p = tmp_path / "pair.json"
        main(["gen", "--seed", "5", "--profile", "pair", "-o", str(p), "--ring", "Z/4"])
        assert main(["check", str(p), "--op", "frobnicate"]) == 2


class TestAxiomTable:
    def test_suite_runs_the_table_after_ex0(self):
        names = list(suite.PROPERTIES)
        at = names.index("axiom-ex0") + 1
        assert names[at:at + len(suite.AXIOMS)] == [f"axiom-{name}" for name in suite.AXIOMS]

    def test_checks_return_bools_that_catch_a_cone_sign_mutation(self, monkeypatch):
        # with the cone differential's sign flipped, the (Ex1) block identities
        # fail on some draws; a failing check returns False, never a truthy
        # tuple and never an exception
        monkeypatch.setattr(complexes, "_CONE_SIGN", 1)
        failed = {}
        for name in suite.AXIOMS:
            prop = suite.PROPERTIES[f"axiom-{name}"]
            results = [prop(suite.trial_rng(0, f"axiom-{name}", t), suite.RINGS)[0] for t in range(30)]
            assert all(type(ok) is bool for ok in results), name
            failed[name] = results.count(False)
        assert failed["ex1"] > 0 and failed["ex1-op"] > 0, failed


class TestSuiteCommand:
    def test_single_property_pass(self, capsys):
        code, out = run(capsys, ["suite", "--seed", "1", "--trials", "2",
                                 "--property", "cone-normalize"])
        assert code == 0
        recs = records_of(out)
        assert recs[-1]["verdict"] == "pass"
        assert all(r["verdict"] == "pass" for r in recs[:-1])

    def test_env_var_narrows_the_ring_pool(self, capsys, monkeypatch):
        argv = ["suite", "--seed", "2", "--trials", "2", "--property", "homotopy-agreement"]
        strip = lambda recs: [{k: v for k, v in r.items() if k != "time"} for r in recs]
        _, explicit = run(capsys, argv + ["--ring", "F5"])
        monkeypatch.setenv("ETACOMPLEX_RING", "F5")
        _, from_env = run(capsys, argv)
        assert strip(records_of(from_env)) == strip(records_of(explicit))

    def test_replay_determinism(self, capsys):
        argv = ["suite", "--seed", "4", "--trials", "2",
                "--property", "homotopy-agreement", "--property", "psi-roundtrip"]
        _, out1 = run(capsys, argv)
        _, out2 = run(capsys, argv)
        strip = lambda recs: [{k: v for k, v in r.items() if k != "time"} for r in recs]
        assert strip(records_of(out1)) == strip(records_of(out2))

    def test_suite_output_digest(self):
        """The suite's records at seed 3 x 5 trials, without `time`, are pinned
        by their sha256 (md5 f235103e..., read on Python 3.10-3.13 and under
        PYTHONHASHSEED 0, 1 and 12345).  A change that keeps every answer
        keeps this digest; a change that alters it must explain every changed
        record in CHANGES.md."""
        code, records = cli.cmd_suite(3, 5, None, None, None)
        digest = hashlib.sha256()
        for r in records:
            r = {k: v for k, v in r.items() if k != "time"}
            digest.update((json.dumps(r, sort_keys=True) + "\n").encode())
        assert code == 0 and len(records) == 116
        assert digest.hexdigest() == \
            "75881728662c6077457f38f99e612ceb9b1d3f3ecfd6face4db54f64f16ac559"

    def test_trials_zero_is_usage_error(self, capsys):
        assert run(capsys, ["suite", "--trials", "0"])[0] == 2

    def test_unknown_property_is_usage_error(self, capsys):
        assert run(capsys, ["suite", "--property", "nope"])[0] == 2

    def test_failure_writes_replay_file(self, tmp_path, capsys, monkeypatch):
        import etacomplex.suite as suite_mod

        def always_fails(rng, rings):
            from etacomplex.generators import random_delta_complex
            from etacomplex.rings import Zmod

            x = random_delta_complex(Zmod(4), rng)
            return False, "injected failure", ("delta-complex", x)

        monkeypatch.setitem(suite_mod.PROPERTIES, "injected-failure", always_fails)
        code, out = run(capsys, ["suite", "--seed", "1", "--trials", "1",
                                 "--property", "injected-failure",
                                 "--fail-dir", str(tmp_path)])
        assert code == 1
        recs = records_of(out)
        fail = recs[0]
        assert fail["verdict"] == "fail" and "replay" in fail
        kind, obj = load_instance_file(fail["replay"])
        assert kind == "delta-complex"

    def test_unusable_fail_dir_exit_two(self, tmp_path, capsys, monkeypatch):
        import etacomplex.suite as suite_mod

        def always_fails(rng, rings):
            return False, "injected failure", ("complex", Complex(ScalarEta(ZZ, 1), {0: 1}, {}))

        monkeypatch.setitem(suite_mod.PROPERTIES, "injected-failure", always_fails)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = tmp_path / "report.jsonl"
        argv = ["suite", "--seed", "1", "--trials", "1", "--property", "injected-failure",
                "--fail-dir", str(blocker / "sub"), "-o", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: cannot use --fail-dir ")
        assert out.read_text() == ""

        # the directory is tried before any property runs
        def not_called(*args, **kwargs):
            raise AssertionError("ran before the fail directory was made")

        monkeypatch.setattr(suite_mod, "run_suite", not_called)
        assert main(argv) == 2
        fresh = tmp_path / "new" / "failures"
        monkeypatch.undo()
        assert main(["suite", "--seed", "1", "--trials", "1", "--property", "axiom-ex0",
                     "--fail-dir", str(fresh), "-o", str(out)]) == 0
        assert fresh.is_dir()

    def test_ring_restriction(self, capsys):
        code, out = run(capsys, ["suite", "--seed", "2", "--trials", "1",
                                 "--ring", "F5", "--property", "theta-revalidates"])
        assert code == 0
