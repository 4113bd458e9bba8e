import dataclasses
import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from ndrank import cli, cone, datasets, factor, poset, rank, tensor
from ndrank.poset import collider_to_top, format_poset_text, parse_poset_text

from helpers import rising_hals_restarts


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_selenium_fixture(capsys):
    code, out, _ = run(capsys, "check", "fixture:selenium")
    assert code == 1
    assert "t[1,2] <= t[3,2]" in out
    assert "t[1,1] - t[1,2] - t[3,1] + t[3,2] >= 0" in out
    assert "-3.9" in out


# standard output of four commands, recorded before violations were kept
# sparse and rendered on access; it must not change by a byte
SELENIUM_CHECK = """\
monotonicity [monotonicity]: NON-MEMBER
  violated: t[1,2] <= t[1,3]   (value -0.7)
  violated: t[1,2] <= t[3,2]   (value -3)
  violated: t[2,3] <= t[2,4]   (value -1.2)
finite ND rank [halfspace]: NON-MEMBER
  violated: -t[1,2] + t[1,3] >= 0   (value -0.7)
  violated: -t[2,3] + t[2,4] >= 0   (value -1.2)
  violated: t[1,1] - t[1,2] - t[3,1] + t[3,2] >= 0   (value -3.9)
  violated: t[1,3] - t[1,4] - t[3,3] + t[3,4] >= 0   (value -19.8)
"""

SIGNED_CHAIN_CHECK = """\
monotonicity [monotonicity]: NON-MEMBER
  violated: t[1,2] >= 0   (value -1.25)
  violated: t[2,1] >= 0   (value -0.5)
  violated: t[2,3] >= 0   (value -2.25)
  violated: t[3,2] >= 0   (value -0.75)
  violated: t[3,4] >= 0   (value -1.5)
  violated: t[1,1] <= t[1,2]   (value -1.75)
  violated: t[1,1] <= t[2,1]   (value -1)
  violated: t[1,3] <= t[1,4]   (value -1.25)
  violated: t[1,3] <= t[2,3]   (value -4.25)
  violated: t[2,2] <= t[2,3]   (value -3.75)
  violated: t[2,2] <= t[3,2]   (value -2.25)
  violated: t[2,4] <= t[3,4]   (value -4.5)
  violated: t[3,1] <= t[3,2]   (value -1.75)
  violated: t[3,3] <= t[3,4]   (value -1.75)
finite ND rank [tree-differencing]: NON-MEMBER
  violated: -t[1,1] + t[1,2] >= 0   (value -1.75)
  violated: -t[1,3] + t[1,4] >= 0   (value -1.25)
  violated: -t[1,1] + t[2,1] >= 0   (value -1)
  violated: t[1,2] - t[1,3] - t[2,2] + t[2,3] >= 0   (value -7)
  violated: t[2,1] - t[2,2] - t[3,1] + t[3,2] >= 0   (value -3.75)
  violated: t[2,3] - t[2,4] - t[3,3] + t[3,4] >= 0   (value -7)
"""

COLLIDER_PAIR_CHECK = """\
monotonicity [monotonicity]: NON-MEMBER
  violated: t[1,2] >= 0   (value -1)
  violated: t[2,3] >= 0   (value -2)
  violated: t[1,1] <= t[1,3]   (value -1.5)
  violated: t[1,1] <= t[3,1]   (value -1.75)
  violated: t[2,1] <= t[2,3]   (value -3)
  violated: t[2,1] <= t[3,1]   (value -0.75)
  violated: t[2,2] <= t[2,3]   (value -5)
  violated: t[2,2] <= t[3,2]   (value -1.5)
finite ND rank [double-description]: NON-MEMBER
  violated: -t[1,1] - t[1,2] + t[1,3] + t[2,1] - t[2,2] + t[3,2] >= 0   (value -1)
  violated: -t[1,1] + t[3,1] >= 0   (value -1.75)
  violated: -t[1,1] + t[1,3] >= 0   (value -1.5)
  violated: -t[1,1] + t[1,2] - t[2,1] - t[2,2] + t[2,3] + t[3,1] >= 0   (value -8.75)
  violated: -t[2,1] + t[3,1] >= 0   (value -0.75)
  violated: -t[2,1] + t[2,3] >= 0   (value -3)
  violated: -t[2,2] + t[3,2] >= 0   (value -1.5)
  violated: -t[2,2] + t[2,3] >= 0   (value -5)
  violated: t[1,2] >= 0   (value -1)
  violated: t[1,1] - t[1,2] - t[2,1] - t[2,2] + t[2,3] + t[3,2] >= 0   (value -1.5)
"""

COLLIDER_PAIR_HREP = """\
-1 -1 1 -1 1 0 1 0 0
-1 -1 1 1 -1 0 0 1 0
-1 0 0 0 0 0 1 0 0
-1 0 1 0 0 0 0 0 0
-1 1 0 -1 -1 1 1 0 0
-1 1 0 1 1 -1 0 -1 1
0 -1 0 0 0 0 0 1 0
0 -1 1 0 0 0 0 0 0
0 0 0 -1 0 0 1 0 0
0 0 0 -1 0 1 0 0 0
0 0 0 0 -1 0 0 1 0
0 0 0 0 -1 1 0 0 0
0 0 0 0 1 -1 0 -1 1
0 0 0 0 1 0 0 0 0
0 0 0 1 0 -1 -1 0 1
0 0 0 1 0 0 0 0 0
0 1 -1 0 0 0 0 -1 1
0 1 0 0 0 0 0 0 0
1 -1 0 -1 -1 1 0 1 0
1 -1 0 1 1 -1 -1 0 1
1 0 -1 0 0 0 -1 0 1
1 0 0 0 0 0 0 0 0
1 1 -1 -1 1 0 0 -1 1
1 1 -1 1 -1 0 -1 0 1
"""



def test_certificate_output_is_byte_identical(tmp_path, capsys):
    signed = [[0.5, -1.25, 2.0, 0.75], [-0.5, 1.5, -2.25, 3.0], [1.0, -0.75, 0.25, -1.5]]
    pair = [[2.0, -1.0, 0.5], [1.0, 3.0, -2.0], [0.25, 1.5, 4.0]]
    (tmp_path / "signed.json").write_text(json.dumps({"shape": [3, 4], "data": sum(signed, [])}))
    (tmp_path / "pair.json").write_text(json.dumps({"shape": [3, 3], "data": sum(pair, [])}))
    for argv, want_code, want in (
            (["check", "fixture:selenium"], 1, SELENIUM_CHECK),
            (["check", str(tmp_path / "signed.json"), "chain:3", "chain:4"], 1,
             SIGNED_CHAIN_CHECK),
            (["check", str(tmp_path / "pair.json"), "collider:3", "collider:3"], 1,
             COLLIDER_PAIR_CHECK),
            (["hrep", "collider:3", "collider:3"], 0, COLLIDER_PAIR_HREP)):
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (want_code, want)


def test_check_collider_fixture_member(capsys):
    code, out, _ = run(capsys, "check", "fixture:collider3")
    assert code == 0
    assert "member" in out


def test_check_order_0_tensor(tmp_path, capsys):
    # an order-0 tensor has no modes, so it needs no posets
    t = tmp_path / "t.json"
    # the default slack is relative, so -1e-9 fails as -1 does
    for x, code_want in ((2.0, 0), (0.0, 0), (-1e-9, 1), (-1.0, 1)):
        t.write_text(json.dumps({"shape": [], "data": [x]}))
        code, out, _ = run(capsys, "check", str(t))
        assert code == code_want
        verdict, violated = (("member", "") if code_want == 0 else
                             ("NON-MEMBER", f"  violated: t[] >= 0   (value {x:.6g})\n"))
        assert out == (f"monotonicity [monotonicity]: {verdict}\n{violated}"
                       f"finite ND rank [tree-differencing]: {verdict}\n{violated}")


def test_check_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1, 2\n3, zap\n")
    pos = tmp_path / "p.poset"
    pos.write_text("elements: x,y\nx < y\n")
    code, _, err = run(capsys, "check", str(bad), str(pos), str(pos))
    assert code == 2
    assert "line 2" in err
    # a nan cell read as a number, and the tensor check refused it with no location
    bad.write_text("1, 2\n3, nan\n")
    code, _, err = run(capsys, "check", str(bad), str(pos), str(pos))
    assert code == 2
    assert err == "error: not a finite number: 'nan' (line 2, column 2)\n"


def test_check_unknown_fixture(capsys):
    # the KeyError's message, without the quotes its str() adds
    code, out, err = run(capsys, "check", "fixture:foo")
    assert code == 2 and out == ""
    assert err == f"error: unknown fixture 'foo'; available: {sorted(datasets.FIXTURES)}\n"


def test_check_repeated_poset_label(tmp_path, capsys):
    t = tmp_path / "t.csv"
    t.write_text("1,2\n3,4\n")
    good, bad = tmp_path / "good.poset", tmp_path / "bad.poset"
    good.write_text("elements: x,y\nx < y\n")
    bad.write_text("# two labels alike\nelements: x,x\n")
    code, _, err = run(capsys, "check", str(t), str(good), str(bad))
    assert code == 2
    assert "distinct" in err and "line 2" in err


def test_check_with_explicit_files(tmp_path, capsys):
    T, (rows, cols) = datasets.fixture("selenium")
    tpath = tmp_path / "sel.csv"
    tpath.write_text("\n".join(",".join(str(v) for v in row) for row in T) + "\n")
    rp, cp = tmp_path / "rows.poset", tmp_path / "cols.poset"
    rp.write_text(format_poset_text(rows))
    cp.write_text(format_poset_text(cols))
    code, out, _ = run(capsys, "check", str(tpath), str(rp), str(cp))
    assert code == 1


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_files_with_a_byte_order_mark_read_as_without(tmp_path, capsys, suffix):
    # a spreadsheet's "CSV UTF-8" export starts with U+FEFF: the CSV reader
    # read it as part of the first cell, the JSON decoder refused it, and
    # the poset reader found no 'elements:' header
    T, posets = datasets.fixture("selenium")
    texts = {f"t{suffix}": (tensor.tensor_to_json(T) if suffix == ".json" else
                            "\n".join(",".join(repr(float(v)) for v in row) for row in T) + "\n"),
             "rows.poset": format_poset_text(posets[0]), "cols.poset": format_poset_text(posets[1])}
    for folder, mark in (("plain", ""), ("bom", "\ufeff")):
        (tmp_path / folder).mkdir()
        for name, text in texts.items():
            (tmp_path / folder / name).write_text(mark + text, encoding="utf-8")
    plain, bom = (tuple(str(tmp_path / folder / name) for name in texts) for folder in ("plain", "bom"))
    assert tensor.read_tensor(bom[0]).tobytes() == tensor.read_tensor(plain[0]).tobytes()
    for want, got in zip(plain[1:], bom[1:]):
        assert poset.read_poset(got) == poset.read_poset(want)
    code, out, err = run(capsys, "check", *plain)
    assert code == 1 and err == ""
    assert run(capsys, "check", *bom) == (code, out, err)


def test_rays_counts(capsys):
    code, out, _ = run(capsys, "rays", "chain:2", "chain:3", "--finite-rank", "--count-only")
    assert code == 0 and out.strip() == "6"
    code, out, _ = run(capsys, "rays", "chain:2", "chain:3", "--product", "--count-only")
    assert code == 0 and out.strip() == "9"


def test_rays_counts_finite_rank_generators_without_building_them(capsys, monkeypatch):
    # 10 000 generators of 10 000 entries: 800 MB to print their count
    def refuse(posets):
        raise AssertionError("finite_rank_vrep was called")

    monkeypatch.setattr(cli, "finite_rank_vrep", refuse)
    code, out, _ = run(capsys, "rays", "chain:100", "chain:100", "--finite-rank", "--count-only")
    assert code == 0 and out == "10000\n"
    code, out, _ = run(capsys, "rays", "collider:3", "collider:3", "chain:2", "--finite-rank",
                       "--count-only")
    assert code == 0 and out == "32\n"


def test_rays_counts_product_generators_without_building_them(capsys, monkeypatch):
    # the product's connected upsets are counted by a walk over bitmasks:
    # chain:10 x chain:10 has 184 755, which as frozensets and a dense
    # generator matrix took 647 MB
    cases = [("chain:2", "chain:3"), ("collider:3", "chain:2"), ("trivial:2", "chain:2"),
             ("collider:3", "collider:3"), ("trivial:3",), ("collider:4",)]
    want = [len(cone.order_cone_vrep(poset.product([cli._load_poset(tok) for tok in toks])))
            for toks in cases]

    def refuse(*args):
        raise AssertionError("the generators were built")

    monkeypatch.setattr(cli, "_ordered_connected_upset_masks", refuse)
    monkeypatch.setattr(cli, "_unpack", refuse)
    monkeypatch.setattr(poset, "connected_upsets", refuse)
    for toks, count in zip(cases, want):
        code, out, _ = run(capsys, "rays", *toks, "--product", "--count-only")
        assert code == 0 and out == f"{count}\n"
    code, out, _ = run(capsys, "rays", "chain:10", "chain:10", "--product", "--count-only")
    assert code == 0 and out == "184755\n"


def test_rays_lists_finite_rank_generators(capsys):
    code, out, _ = run(capsys, "rays", "chain:2", "chain:2", "--finite-rank")
    assert code == 0
    assert out == ("4 finite-rank generators\n"
                   "generator 1:\n  [[0 0]\n   [0 1]]\n"
                   "generator 2:\n  [[0 0]\n   [1 1]]\n"
                   "generator 3:\n  [[0 1]\n   [0 1]]\n"
                   "generator 4:\n  [[1 1]\n   [1 1]]\n")


@pytest.mark.parametrize("toks", [
    ("chain:2", "chain:3", "--finite-rank"), ("collider:3", "chain:2", "--product"),
    ("chain:60",), ("trivial:2", "chain:501", "--product")],
    ids=["finite-rank", "product", "wrapped", "summarized"])
def test_rays_listing_is_what_array2string_prints(capsys, toks):
    # one template filled with each generator's digits: rows that wrap, and
    # listings past numpy's threshold that show only each axis's ends
    posets = [cli._load_poset(tok) for tok in toks if not tok.startswith("--")]
    shape = tuple(P.p for P in posets)
    if "--finite-rank" in toks:
        gens = cone.finite_rank_vrep(posets)
    else:
        gens = cone.order_cone_vrep(poset.product(posets) if len(posets) > 1 else posets[0])
    want = "".join(f"generator {i + 1}:\n  " + np.array2string(
        np.reshape(g, shape).astype(int), separator=" ").replace("\n", "\n  ") + "\n"
        for i, g in enumerate(gens))
    code, out, _ = run(capsys, "rays", *toks)
    assert code == 0 and out.split("\n", 1)[1] == want


def test_rays_trivial_basis(capsys):
    code, out, _ = run(capsys, "rays", "trivial:3")
    assert code == 0
    assert "3 order-cone generators" in out


def test_rays_guard_message(capsys, monkeypatch):
    # the upset walk's work guard, lowered so that collider:9 (256 upsets)
    # meets it as collider:21 meets the real one
    monkeypatch.setattr(poset, "ANTICHAIN_COUNT_LIMIT", 100)
    code, _, err = run(capsys, "rays", "collider:9", "--count-only")
    assert code == 2
    assert "more than 100 upsets" in err


def test_rays_of_several_posets_need_a_flag(capsys):
    code, out, err = run(capsys, "rays", "chain:2", "chain:3")
    assert code == 2 and out == ""
    assert "--product or --finite-rank" in err


def test_rays_cone_flags_exclude_each_other(capsys):
    # --finite-rank used to win over --product without a word
    with pytest.raises(SystemExit) as exc:
        cli.main(["rays", "chain:2", "chain:2", "--product", "--finite-rank"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not allowed with argument --product" in captured.err


# sha256 of the standard output of each command, recorded before the
# finite-rank cone kept one plan per poset tuple and `rays` rendered its
# listing from one template
CLI_SHA256 = {
    "check fixture:selenium": "d3102eb65ee121e52fd66ca2864090db7ccee1967022d47f32b7ca0df1fd9246",
    "check fixture:collider3": "b2e89cf3a91fc2ddb9a36f3918cb045138ba17617f01753e832727470fded0cf",
    "hrep collider:3 collider:3": "121a33dbf6fb1e8a31f77dfb16d4ee7b598b74eba7b10de117d27f5c6f61233f",
    "hrep chain:3 collider:4 chain:2":
        "192f687ba33aa638a77020280eb66b6633e5340170d201a0569d4e152b732a84",
    "rays chain:4 chain:3 --product":
        "42b58474a1d894c882e1fb4888006a9cb5bbbe38aa07e3588fa46a68b8cff004",
    "rays collider:3 collider:3 --finite-rank":
        "e266f9fd63ecd03c90092342e037352a9dd738221f614f4e842864b0e6bb5991",
    "rays chain:60": "9be369f94cb4ece762033b833d2d5cd6f63980a18e34ed3296117b1afc6808c5",
}


@pytest.mark.parametrize("command", CLI_SHA256)
def test_cli_output_is_pinned(capsys, command):
    _, out, _ = run(capsys, *command.split())
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_SHA256[command]


def test_hrep_two_chains(capsys):
    code, out, _ = run(capsys, "hrep", "chain:2", "chain:3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all(len(line.split()) == 6 for line in lines)


def test_hrep_collider_pair_uses_double_description(capsys):
    code, out, _ = run(capsys, "hrep", "collider:3", "collider:3")
    assert code == 0
    assert len(out.strip().splitlines()) == 24
    posets = [collider_to_top(3), collider_to_top(3)]
    normals = cone.double_description(cone.finite_rank_vrep(posets))
    assert out == "\n".join(" ".join(str(int(c)) for c in row) for row in normals) + "\n"


def test_bounds(capsys):
    code, out, _ = run(capsys, "bounds", "collider:3", "collider:3")
    assert code == 0
    assert "max ND rank: 4" in out
    assert "typical ND ranks: 3..4" in out
    code, out, _ = run(capsys, "bounds", "chain:5", "chain:5")
    assert "max ND rank: 5" in out


def test_bounds_count_rays_without_listing_upsets(capsys, monkeypatch):
    # rank_bounds counts each cone's rays with count_connected_upsets: the
    # 524 288 upsets of collider:20 as frozensets take about 0.5 GB
    def refuse(*args):
        raise AssertionError("the connected upsets were listed")

    for mod in (poset, cone, rank):  # wherever a module could bind the name
        monkeypatch.setattr(mod, "connected_upsets", refuse, raising=False)
    b = rank.rank_bounds([collider_to_top(12), poset.chain(3)])
    assert (b.extremal_ray_counts, b.upper, b.exact_max) == ([2048, 3], 3, 3)
    code, out, _ = run(capsys, "bounds", "collider:12", "collider:12")
    assert code == 0
    assert out == ("extremal ray counts: 2048 2048\n"
                   "max ND rank upper bound: 2048\n"
                   "max ND rank: 2048\n"
                   "typical ND ranks: 12..2048\n")


def test_bounds_without_a_known_maximum(tmp_path, capsys):
    # two maximal elements: no collider to a top, so the maximum is unknown
    path = tmp_path / "two_tops.poset"
    path.write_text(format_poset_text(
        poset.from_relation([0, 1, 2, 3], [(0, 2), (1, 2), (0, 3)])))
    code, out, _ = run(capsys, "bounds", str(path), str(path))
    assert code == 0
    assert "max ND rank: unknown" in out
    assert "typical ND ranks: 4..? (maximum unknown)" in out


def test_sample_m1(capsys):
    code, out, _ = run(capsys, "sample", "--m", "1", "--n", "200")
    assert code == 0
    assert "1.000000" in out


def test_sample_m4(capsys):
    code, out, _ = run(capsys, "sample", "--m", "4", "--n", "3000", "--seed", "2")
    assert code == 0
    assert str(cone.sample_finite_rank_probability(4, 3000, 2)) in out
    code, _, err = run(capsys, "sample", "--m", "5", "--n", "10")
    assert code == 2 and "m <= 4" in err


def test_check_rejects_a_bad_tol(capsys):
    # with --tol nan this printed "member" for a tensor with negative entries
    for tol in ("nan", "inf", "-1"):
        code, out, err = run(capsys, "check", "fixture:selenium", "--tol", tol)
        assert code == 2 and out == "" and "tol" in err


def test_factorize_cchs_rank1(capsys):
    code, out, _ = run(capsys, "factorize", "fixture:cchs", "--rank", "1", "--seed", "0")
    assert code == 0
    rss = float(next(line.split()[1] for line in out.splitlines() if line.startswith("RSS")))
    assert 130 <= rss <= 160
    tss = float(next(line.split()[1] for line in out.splitlines() if line.startswith("TSS")))
    assert abs(tss - 6925) <= 1


def test_factorize_loss_rank_guard(capsys):
    code, _, err = run(capsys, "factorize", "fixture:cchs", "--rank", "2", "--loss", "poisson")
    assert code == 2
    assert "rank 1" in err


@pytest.mark.parametrize("loss", ["multinomial", "poisson"])
def test_factorize_rejects_non_finite_tensor(tmp_path, capsys, loss):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"shape": [2, 2], "data": [1.0, float("nan"), 2.0, 3.0]}))
    out = tmp_path / "fit"
    code, _, err = run(capsys, "factorize", str(path), "chain:2", "chain:2", "--rank", "1",
                       "--loss", loss, "--out", str(out))
    assert code == 2 and "finite" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.json"]


@pytest.mark.parametrize("loss, posets, message", [
    ("poisson", ["chain:3"] * 3, "mode 1 has size 5, poset has 3 elements"),
    ("multinomial", ["chain:5", "chain:7", "trivial:2", "chain:2"],
     "4 posets for an order-3 tensor"),
], ids=["poisson", "multinomial"])
def test_factorize_checks_the_posets_for_every_loss(tmp_path, capsys, loss, posets, message):
    # the marginal losses fit without posets, but write one factor table per
    # poset: too short a poset died in the writer, after X.json was written
    out = tmp_path / "fit"
    code, stdout, err = run(capsys, "factorize", "fixture:cchs", *posets, "--rank", "1",
                            "--loss", loss, "--out", str(out))
    assert code == 2 and stdout == ""
    assert err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


def test_factorize_rejects_bad_fit_settings(tmp_path, capsys):
    # every loss builds its FitConfig: a marginal fit ran on bad settings
    for loss, rank in (("gaussian", "2"), ("poisson", "1"), ("multinomial", "1"),
                       ("exponential", "1")):
        for flags, message in ((["--restarts", "0"], "at least 1"),
                               (["--max-sweeps", "0"], "at least 1"),
                               (["--restarts", "0", "--rel-tol", "-5"], "at least 1"),
                               (["--rel-tol", "-5"], "rel_tol")):
            code, _, err = run(capsys, "factorize", "fixture:cchs", "--rank", rank,
                               "--loss", loss, *flags, "--out", str(tmp_path / "fit"))
            assert code == 2 and message in err
            assert not list(tmp_path.iterdir())


def test_factorize_parser_defaults_are_fit_config_defaults():
    p = cli.build_parser()
    args = p.parse_args(["factorize", "fixture:cchs", "--rank", "3"])
    assert dataclasses.asdict(factor.FitConfig(rank=3)) == {
        f.name: getattr(args, f.name) for f in dataclasses.fields(factor.FitConfig)}
    for init in factor.INITS:
        assert p.parse_args(["factorize", "x", "--rank", "1", "--init", init]).init == init
    with pytest.raises(SystemExit):
        p.parse_args(["factorize", "fixture:cchs", "--rank", "1", "--init", "svd"])


def test_factorize_manifest_holds_the_fit_report(tmp_path, capsys, monkeypatch):
    reports = []

    def recording_hals(*a):
        fact, report = factor.hals(*a)
        reports.append(report)
        return fact, report

    monkeypatch.setattr(cli, "hals", recording_hals)
    argv = ["factorize", "fixture:cchs", "--rank", "2", "--restarts", "3", "--seed", "4",
            "--init", "random-cone", "--out", str(tmp_path / "fit")]
    assert cli.main(argv) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "fit_manifest.json").read_text())
    base = {"command", "tensor", "posets", "config", "version", "versions", "wall_time_s",
            "timestamp", "outputs"}
    fit = {k: v for k, v in manifest.items() if k not in base}
    [report] = reports
    assert fit == {k: v for k, v in dataclasses.asdict(report).items() if k != "objective_trace"}
    assert manifest["config"] == {**dataclasses.asdict(factor.FitConfig(
        rank=2, restarts=3, seed=4, init="random-cone")), "loss": "gaussian"}
    # the trace lives in its own table, one row a sweep, and nowhere else
    rows = (tmp_path / "fit_trace.csv").read_text().splitlines()
    assert rows[0] == "sweep,rss" and len(rows) - 1 == report.sweeps
    assert [float(row.split(",")[1]) for row in rows[1:]] == pytest.approx(
        report.objective_trace, rel=1e-11, abs=0)
    assert set(json.loads((tmp_path / "fit.json").read_text())["diagnostics"]) == {"seed"}

    argv = ["factorize", "fixture:cchs", "--rank", "1", "--loss", "poisson",
            "--out", str(tmp_path / "counts")]
    assert cli.main(argv) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "counts_manifest.json").read_text())
    assert set(manifest) == base
    assert manifest["config"]["loss"] == "poisson"
    assert (tmp_path / "counts_trace.csv").read_text() == "sweep,rss\n"


@pytest.mark.parametrize("rel_tol", ["nan", "inf"])
def test_factorize_rejects_a_non_finite_rel_tol(tmp_path, capsys, rel_tol):
    out = tmp_path / "fit"
    code, _, err = run(capsys, "factorize", "fixture:cchs", "--rank", "2", "--rel-tol", rel_tol,
                       "--out", str(out))
    assert code == 2 and "rel_tol" in err
    assert not list(tmp_path.iterdir())


def test_cli_refuses_a_negative_seed(tmp_path, capsys):
    # numpy refused it with a message that named no setting, and a Poisson
    # fit wrote "seed": -1 to its manifest and exited 0
    for loss in ("gaussian", "poisson"):
        code, out, err = run(capsys, "factorize", "fixture:selenium", "--rank", "1", "--loss", loss,
                             "--seed", "-1", "--out", str(tmp_path / "fit"))
        assert code == 2 and out == "" and err == "error: seed must be at least 0\n"
        assert not list(tmp_path.iterdir())
    code, out, err = run(capsys, "sample", "--m", "2", "--n", "10", "--seed", "-1")
    assert code == 2 and out == "" and "seed" in err


def test_factorize_file_reads_back_as_written(tmp_path, capsys, monkeypatch):
    # the factor file holds the fit alone; the manifest is the one record
    # of the tensor and the posets
    facts = []

    def recording_hals(*a):
        fact, report = factor.hals(*a)
        facts.append(fact)
        return fact, report

    monkeypatch.setattr(cli, "hals", recording_hals)
    argv = ["factorize", "fixture:cchs", "--rank", "2", "--restarts", "3",
            "--out", str(tmp_path / "cchs")]
    assert cli.main(argv) == 0
    capsys.readouterr()
    text = (tmp_path / "cchs.json").read_text()
    assert set(json.loads(text)) == {"rank", "shape", "lambdas", "factors", "diagnostics"}
    back = factor.NDFactorization.from_json(text)
    [fact] = facts
    assert back.lambdas.tobytes() == fact.lambdas.tobytes()
    assert [F.tobytes() for F in back.factors] == [F.tobytes() for F in fact.factors]
    assert back.diagnostics == fact.diagnostics and back.to_json() == text
    manifest = json.loads((tmp_path / "cchs_manifest.json").read_text())
    assert (manifest["tensor"], manifest["posets"]) == ("fixture:cchs", [])
    T, _ = datasets.fixture("cchs")
    assert np.sum((T - back.reconstruct()) ** 2) == pytest.approx(
        manifest["final_residual"] ** 2, rel=1e-9, abs=0)


@pytest.mark.parametrize("source, loss", [
    ("fixture:cchs", "gaussian"), ("fixture:selenium", "poisson"),
    ("fixture:selenium", "multinomial"), (None, "exponential"),
])
def test_factorize_manifest_lists_exactly_the_files_written(tmp_path, capsys, source, loss):
    given, posets = set(), []
    if source is None:  # the exponential fit needs a positive monotone tensor
        rng = np.random.default_rng(0)
        T = np.outer(np.sort(rng.random(3)) + 0.1, np.sort(rng.random(4)) + 0.1)
        (tmp_path / "t.json").write_text(json.dumps({"shape": [3, 4], "data": T.ravel().tolist()}))
        source, posets = str(tmp_path / "t.json"), ["chain:3", "chain:4"]
        given.add("t.json")
    code, _, err = run(capsys, "factorize", source, *posets, "--rank", "1", "--max-sweeps", "5",
                       "--loss", loss, "--out", str(tmp_path / "fit"))
    assert code == 0, err
    listed = [Path(path) for path in json.loads((tmp_path / "fit_manifest.json").read_text())["outputs"]]
    assert all(path.parent == tmp_path for path in listed) and len(set(listed)) == len(listed)
    # the directory holds the listed files, the manifest and the tensor file, and nothing else
    assert {path.name for path in tmp_path.iterdir()} == {p.name for p in listed} | {"fit_manifest.json"} | given


@pytest.mark.parametrize("name", ["selenium", "cchs"])
def test_factorize_rank_one_writes_rank1_gaussian(tmp_path, capsys, name):
    # the library's Gaussian rank-one fit and the command's are one fit
    code, _, err = run(capsys, "factorize", f"fixture:{name}", "--rank", "1",
                       "--out", str(tmp_path / "fit"))
    assert code == 0, err
    want = rank.rank1_gaussian(*datasets.fixture(name)).to_json()
    assert (tmp_path / "fit.json").read_text(encoding="utf-8") == want


def test_factorize_refuses_an_unknown_loss(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["factorize", "fixture:selenium", "--rank", "1", "--loss", "nope"])
    assert exit_.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err


def test_factorize_outputs_and_determinism(tmp_path, capsys):
    argv = ["factorize", "fixture:selenium", "--rank", "1", "--restarts", "2",
            "--seed", "7", "--out", str(tmp_path / "runA")]
    assert cli.main(argv) == 0
    capsys.readouterr()
    argv[-1] = str(tmp_path / "runB")
    assert cli.main(argv) == 0
    capsys.readouterr()

    a = json.loads((tmp_path / "runA.json").read_text())
    b = json.loads((tmp_path / "runB.json").read_text())
    assert a == b
    for suffix in ("_mode1.csv", "_mode2.csv", "_trace.csv"):
        assert (tmp_path / f"runA{suffix}").read_text() == (tmp_path / f"runB{suffix}").read_text()

    manifest = json.loads((tmp_path / "runA_manifest.json").read_text())
    assert manifest["command"] == "factorize"
    assert manifest["config"]["seed"] == 7
    assert manifest["version"]
    assert (tmp_path / "runA_mode1.csv").read_text().startswith("element,term1")


def test_factorize_manifest_counts_projection_rows(tmp_path, capsys):
    # cchs at rank 2 for 5 sweeps: every restart hits the cap, and each
    # sweep projects 2 terms x (age, year, gender) per restart
    argv = ["factorize", "fixture:cchs", "--rank", "2", "--restarts", "3",
            "--max-sweeps", "5", "--out", str(tmp_path / "fit")]
    assert cli.main(argv) == 0
    capsys.readouterr()
    rows = json.loads((tmp_path / "fit_manifest.json").read_text())["projection_rows"]
    assert set(rows) == {"clamp", "chain", "in_cone", "solved"}
    assert rows["clamp"] == 3 * 5 * 2
    assert rows["chain"] == 0
    assert rows["in_cone"] + rows["solved"] == 3 * 5 * 2 * 2
    assert rows["in_cone"] > 0 and rows["solved"] > 0


def test_factorize_manifest_says_why_the_fit_stopped(tmp_path, capsys):
    for sweeps, stopped in (("5", "max_sweeps"), ("500", "tolerance")):
        argv = ["factorize", "fixture:cchs", "--rank", "2", "--restarts", "3",
                "--max-sweeps", sweeps, "--out", str(tmp_path / sweeps)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / f"{sweeps}_manifest.json").read_text())
        assert manifest["stop_reason"] == stopped
        assert manifest["first_rise"] is None
        trials = manifest["extrapolation"]
        assert set(trials) == {"accepted", "rejected"}
        tests = manifest["stopping_tests"]
        assert set(tests) == {"certified", "exact"}
        if sweeps == "5":
            assert sum(trials.values()) == 3  # one trial sweep a restart
            # each restart-sweep was certified, tested in full or a rejected trial
            assert sum(tests.values()) + trials["rejected"] == 3 * 5
        else:
            assert trials["accepted"] > 0
        assert tests["exact"] >= 3  # no certificate on a restart's first sweep
        assert manifest["versions"] == {"python": platform.python_version(),
                                        "numpy": np.__version__, "scipy": scipy.__version__}
    argv = ["factorize", "fixture:cchs", "--rank", "1", "--loss", "poisson",
            "--out", str(tmp_path / "counts")]
    assert cli.main(argv) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "counts_manifest.json").read_text())
    assert "stop_reason" not in manifest and "extrapolation" not in manifest
    assert "first_rise" not in manifest and "stopping_tests" not in manifest
    assert set(manifest["versions"]) == {"python", "numpy", "scipy"}


def test_factorize_manifest_says_where_the_trace_first_rose(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(factor, "_hals_restarts", rising_hals_restarts(factor._hals_restarts))
    argv = ["factorize", "fixture:cchs", "--rank", "2", "--restarts", "1",
            "--max-sweeps", "5", "--out", str(tmp_path / "fit")]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "fit_manifest.json").read_text())["first_rise"] == 4


def test_factorize_manifest_says_every_term_died(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"shape": [2, 3], "data": [0.0] * 6}))
    argv = ["factorize", str(path), "chain:2", "chain:3", "--rank", "2",
            "--out", str(tmp_path / "fit")]
    assert cli.main(argv) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "fit_manifest.json").read_text())
    assert manifest["stop_reason"] == "dead"


def test_factorize_manifest_says_where_the_time_went(tmp_path, capsys):
    argv = ["factorize", "fixture:cchs", "--rank", "2", "--restarts", "3",
            "--out", str(tmp_path / "fit")]
    assert cli.main(argv) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "fit_manifest.json").read_text())
    timings = manifest["timings"]
    assert set(timings) == {"init_s", "sweeps_s"}
    assert min(timings.values()) >= 0.0
    assert sum(timings.values()) <= manifest["wall_time_s"]


def test_factorize_poisson_rank1(tmp_path, capsys):
    T = np.array([[1.0, 2.0], [3.0, 4.0]])
    tpath = tmp_path / "counts.csv"
    tpath.write_text("1,2\n3,4\n")
    code, out, _ = run(capsys, "factorize", str(tpath), "trivial:2", "trivial:2",
                       "--rank", "1", "--loss", "poisson")
    assert code == 0
    assert "RSS" in out


def test_factorize_exponential_rank1(tmp_path, capsys):
    # an outer product of positive nondecreasing vectors is its own fit
    tpath = tmp_path / "positive.csv"
    tpath.write_text("1,2,2\n2,4,4\n")
    code, out, _ = run(capsys, "factorize", str(tpath), "chain:2", "chain:3",
                       "--rank", "1", "--loss", "exponential", "--out", str(tmp_path / "exp"))
    assert code == 0
    rel = float(next(line.split()[2] for line in out.splitlines() if line.startswith("relative")))
    assert rel < 1e-12
    fact = json.loads((tmp_path / "exp.json").read_text())
    assert fact["rank"] == 1


def test_factorize_multinomial_residual_is_on_the_count_scale(tmp_path, capsys):
    # both fits have cells N * p_i * q_j; the multinomial one was compared
    # as p_i * q_j with the counts and printed a relative residual of 0.952
    # against 0.0899
    tpath = tmp_path / "counts.csv"
    tpath.write_text("1,2,3\n4,5,6\n")
    printed = {}
    for loss in ("multinomial", "poisson"):
        code, out, _ = run(capsys, "factorize", str(tpath), "trivial:2", "trivial:3",
                           "--rank", "1", "--loss", loss)
        assert code == 0
        printed[loss] = out
    assert printed["multinomial"] == printed["poisson"]
    assert "RSS: 0.734694" in printed["poisson"]


@pytest.mark.parametrize("loss", ["multinomial", "poisson"])
def test_factorize_marginal_fits_honour_the_posets(tmp_path, capsys, loss):
    # the marginals [0.65, 0.35] and [0.65, 0.25, 0.1] fall, so each factor
    # table pools to uniform; they were written as they fell
    tpath = tmp_path / "counts.csv"
    tpath.write_text("9,3,1\n4,2,1\n")
    code, _, _ = run(capsys, "factorize", str(tpath), "chain:2", "chain:3", "--rank", "1",
                     "--loss", loss, "--out", str(tmp_path / "fit"))
    assert code == 0
    for j, P in enumerate([poset.chain(2), poset.chain(3)]):
        rows = (tmp_path / f"fit_mode{j + 1}.csv").read_text().splitlines()[1:]
        v = np.array([float(row.split(",")[1]) for row in rows])
        assert cone.is_monotone(v, P).member and np.allclose(v, 1 / P.p)


def test_loading_poset_tokens(tmp_path):
    P = cli._load_poset("collider:4")
    assert P.p == 4
    path = tmp_path / "q.poset"
    path.write_text("elements: a,b\na < b\n")
    Q = cli._load_poset(str(path))
    assert Q.covers == ((0, 1),)


def test_missing_posets_for_plain_tensor(tmp_path, capsys):
    t = tmp_path / "t.csv"
    t.write_text("1,2\n3,4\n")
    code, _, err = run(capsys, "check", str(t))
    assert code == 2
    assert "poset" in err.lower()


@pytest.mark.parametrize("body", [
    '{"shape": [2.5], "data": [1, 2]}',
    '{"shape": [true, 2], "data": [1, 2]}',
    '{"shape": [2], "data": [[1], [2]]}',
    '{"shape": "ab", "data": [1, 2]}',
])
def test_check_rejects_a_malformed_tensor_json(tmp_path, capsys, body):
    path = tmp_path / "t.json"
    path.write_text(body)
    code, out, err = run(capsys, "check", str(path), "chain:2")
    assert code == 2 and out == ""
    assert err.startswith("error: 'shape'") or err.startswith("error: 'data'")


@pytest.mark.parametrize("tensor, posets, message", [
    ({"shape": [2, 2], "data": [1e154, 2e154, 3e154, 4e154]}, ["chain:2", "chain:2"],
     "overflows"),
    ({"shape": [2, 2], "data": [1e-200, 2e-200, 3e-200, 4e-200]}, ["chain:2", "chain:2"],
     "underflows"),
    ({"shape": [], "data": [2.0]}, [], "at least one mode"),
], ids=["overflow", "underflow", "order-0"])
def test_factorize_refuses_a_tensor_it_cannot_fit(tmp_path, capsys, tensor, posets, message):
    # the first and last used to end in a traceback, read as the exit code
    # of a verdict, and the second in a fit whose every scale was 0
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tensor))
    code, out, err = run(capsys, "factorize", str(path), *posets, "--rank", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
