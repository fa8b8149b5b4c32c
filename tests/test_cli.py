import csv
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import quadlcm.cli as cli
from quadlcm import bounds, poly
from quadlcm.window import Window

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "schemas"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def load_schema(name):
    with open(SCHEMA_DIR / name) as fh:
        return json.load(fh)


# sha256 of `quadlcm bezout --c C --k K` stdout, captured before the polynomial
# core went fraction-free ((3, 60) and (5, 40) before the Newton coefficients
# came from a difference table); (3, 10), (3, 15) and (3, 25) are also the
# bezout_ladder output hashes in perfbench/baseline.json
BEZOUT_SHA256 = {
    (1, 0): "45bdaf98d63c1be8fc883e922fd0a3ff58a1ba5f38a72a516a9832b06859618b",
    (1, 1): "88f0d160e4d9b46efa25809b753622d4bae83b21954a3b330ee8c50fd0cac820",
    (1, 2): "6c58fddab42b4034eb3c3a09b2d739f4483c9774bdaa61f6cea1e661f53f6126",
    (1, 7): "5409edd3691db45b207a3a2afb2149e9eeb5e6e12b2389a9b02bcb22a86a1977",
    (1, 15): "ae02273d1e122ec9f41f54c408af1a96982e3d2c7d9f8928a5cbce32cd8169b1",
    (1, 25): "02c4c549e46cd52e5ebeb3a326bdfdaa95d54ddbef6ee9750c7972c544b90abf",
    (2, 0): "0ef3682a2c067f064d3f2de9a1eb229268f98304bcc9eb393da6d42d726c72c7",
    (2, 1): "1e3095fdc48c0fda9f20dae9b5672b0099826bb86dd437831a0acae583f939b0",
    (2, 2): "50573d321b400ae1861a7b16da67d37bb1e10b93698e87bf751a6412453a2b1a",
    (2, 7): "a60ee425f9b03dc9011d755bd5593fe8364bf5887e62a2eb8d94d35893564e4f",
    (2, 15): "7cc9f190243a80a40474650a613efd5bc7641413d9ed31ea46e84bd3790c5f08",
    (2, 25): "2ebfe1dad1d2f9c85eb754c8972b68f0da3090efab363afb4f2227a1bacda58a",
    (3, 0): "616ccb0c0c736f09d7cc9ebd77a8a6037798ec44523b3c8d5b910ac20a2971ed",
    (3, 1): "3fc6f86b486f52c3087f06d8392464a5d4c5f9a0933152270e3f59afb3ec8b59",
    (3, 2): "dedbfb636572e383967b495ba35b1712735872d3e13ba71327b420b29d150b39",
    (3, 7): "2ca3f2febcbda3c7f521a005307723fbb4b3e7533d53ebb3e3c4e61537b3745b",
    (3, 10): "9313c054003afe3994b2b3987ebb8e1fd0d5dea4d555238cbf3507a0bfeb1b23",
    (3, 15): "9a9e1d015ff04a8ff935e90585d1465702ed0d298b42dffe53fc045be11d677c",
    (3, 25): "8dc2c9b7c35f96a6b9d2ddccffe56574c3e4fb0c9332ffd40d12bdff89eb30a7",
    (3, 60): "47ab0360d84fc0deb22e93c3ebe6ed48db2c2f96c4349ffabf5a66ddb520db72",
    (3, 100): "e634dda738d03fb130f5b58a025d79ee7e62acbe65635da541f3404cce25f489",
    (4, 0): "5627442eae9b943872ae6261f75b68e59a5e606659ab25d7fca25918562dabcf",
    (4, 1): "adc4abee9e8f9408e6f22aa2cb76a0373bb6afa86866e320deba3905efa72564",
    (4, 2): "f424951f6244b688cf066c8595e2e7368480118035bdc73a149f4240738f3e40",
    (4, 7): "844eaa417ac693209775ce8fe9685e0a9467491249d1a7e8da9628626894c884",
    (4, 15): "44703208d563fb6c7b067e0aa5acaff1b13e5b58faed84ba7909749275a45081",
    (4, 25): "25042218adc0bdf5d1a6826c203e815afee87c0fb8e6cccc6c23be58df8ab1c1",
    (5, 0): "21709ebf24e93d33aee7d7770b0f171976918215d2876475f311f98add7db8d8",
    (5, 1): "e04ffc847ea105cee9b0594bcecc4d6a067c3107ff9790537514bc4f3c267d09",
    (5, 2): "f3370b4b93f7bf7fbce30f88df1118487f93e5274aa4e46e36b8f1559b1e09fe",
    (5, 7): "4abf405fc9cf7a985b1f3610c2fff1158e62c9f79f96c459f4f06cc56e4c48db",
    (5, 15): "5f64195ba5eeb3bc49fcfa277ce672e66cefd45de928d25b8e26ea7755f1c700",
    (5, 25): "7aebf24ecee2b673c84f2c32cbb113ac045b2a3b99e790e7fba98f83cb5d9c30",
    (5, 40): "4a9afc7faf0bb85e5cd1abb89b1ef953841cdd463950d184952695d77b248e85",
    (5, 100): "8d3669abe257ef32697005192bee484b42edc68dde671e9426488d9bc28ab014",
}

# sha256 of the `bezout` stdout of every c <= 5, k <= 40 in turn, captured
# while alpha's Newton coefficients were still QuadRat values
BEZOUT_GRID_SHA256 = "024d1ce738218aa49d1755f15c4dc7ad02494259991edb1be996f229ff1ac180"

# sha256 of `quadlcm table` / `quadlcm sweep` stdout, captured before the
# bound prefactors were memoised; table c=1 and the `all` and `half_ceil`
# sweeps are also output hashes in perfbench/baseline.json.  The two JSON
# sweeps of the `all` and `frontier` policies were captured before bound
# values became tuples and the log printer cached its scales.
TABLE_SHA256 = {
    1: "0c1bc87b0de97e493b88240c18a2fdc8bfcc1d5d169b547c2a5cc71ff1db5c2f",
    2: "3ab6cb6005d88740d2f22db10c1eca14d6c042e98273cc697a6bb57ac7157db5",
    3: "266fd5299910a97fe853e62566ee1a2a176b9fe4523381eee22bb09413418037",
}
SWEEP_SHA256 = {
    ("all", 40, "csv"): "4b33f98b5820501248e5e3845c9df6df681145716feedfbd516b110b5211dc1f",
    ("half_ceil", 260, "json"): "ab509a2cfe3dd77a54c453d2ff422aeb5cb56e09615771f565652b07fb611408",
    ("frontier", 220, "csv"): "87615b1babe6846140edfbee9fb2a50712248b00ed34dc4da82da259e2bbbd49",
    ("all", 40, "json"): "72df32b3684017d935615859a0b769d9c5e65b456cc30d5e78e607c4849c1e24",
    ("frontier", 220, "json"): "398d6fa2e0f0710f9c3fafabe31730d99a979a20b12f90d00fd08a365bde4148",
}
# sha256 of `quadlcm verify --c C --m M --n N` stdout, captured before the
# three parts of a triple's record were built from one L
VERIFY_SHA256 = {
    (1, 1, 1): "9c6831d1ed8f9bbb71270e32312fe26a1ab180cf89c5c8eb8e663807486d7c4a",
    (1, 1, 3): "f1c159c8da2c97fcc85ee63112980282a76f471ba2e8c1aa10be3b025d9bba54",
    (1, 2, 3): "e01b5765405498e91fbb5807bdcbdb4c528780e702fa5fb73edad1c5844a4783",
    (4, 7, 7): "d4d5b1ee1dcdc85fa5dfd665cf058a3636f67d9b78d1142f3c7724de08c1747e",
    (3, 5, 60): "8c0becbc9a45c93ef57222489b14736b08767f24474863b7e99bb9e3c25a33b6",
    (2, 1, 150): "dc9e630580b3c7dfed8c86e2ada8fe0bb7addf16724dc984eb5ff077ac897671",
    (5, 100, 200): "a7d70f8affb9f798fc64e400c53e8603d31964ccce736043f1d7345bdb15c3aa",
}

def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_happy_path(self, capsys):
        code, out, _ = run(["verify", "--c", "1", "--m", "1", "--n", "3"], capsys)
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("verify_report.schema.json"))
        assert doc["divisor"]["L"] == 10
        assert doc["divisor"]["D_num"] == 5
        assert doc["divisor"]["D_den"] == 4
        assert doc["divisor"]["quotient"] == 8
        assert doc["ok"] is True

    def test_tight_divisor(self, capsys):
        code, out, _ = run(["verify", "--c", "1", "--m", "2", "--n", "3"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["divisor"]["quotient"] == 1

    def test_usage_error_m_above_n(self, capsys):
        code, out, err = run(["verify", "--c", "1", "--m", "3", "--n", "1"], capsys)
        assert code == 1
        assert out == ""
        assert "usage:" in err

    def test_usage_error_bad_flag(self, capsys):
        code, _, err = run(["verify", "--c", "1", "--m", "1"], capsys)
        assert code == 1
        assert "usage:" in err

    def test_usage_error_unknown_command(self, capsys):
        code, _, err = run(["frobnicate"], capsys)
        assert code == 1
        assert "usage:" in err

    def test_violation_exit_2(self, capsys, monkeypatch):
        def forged(c, n, ms):
            [(values, numerator, denominator, holds, _)] = real(c, n, ms)
            return [(values[:6] + (None,) + values[7:], numerator, denominator, holds, ("forged failure",))]

        real = bounds.row_checks
        monkeypatch.setattr(bounds, "row_checks", forged)
        code, out, _ = run(["verify", "--c", "1", "--m", "1", "--n", "3"], capsys)
        assert code == 2
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("verify_report.schema.json"))
        assert doc["ok"] is False
        assert doc["divisor"]["quotient"] is None
        assert any("forged" in v for v in doc["violations"])

    @pytest.mark.parametrize("c, m, n", sorted(VERIFY_SHA256))
    def test_golden_bytes(self, c, m, n, capsys):
        code, out, _ = run(["verify", "--c", str(c), "--m", str(m), "--n", str(n)], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256[(c, m, n)]


class TestVerifyOnePass:
    @pytest.mark.parametrize("forged", [False, True], ids=["true-L", "forged-L"])
    def test_each_bound_is_decided_once(self, forged, capsys, monkeypatch):
        # the violations and the document's `checks` read the one verdict of the row pass: each exact
        # bound that applies at (1, 1, 2), 2^n, m * C(n, m) and Farhi's, is evaluated once
        def counted(name, bound):
            return lambda *args: decided.append(name) or bound(*args)

        if forged:
            _forge_lcm(monkeypatch)
        decided = []
        monkeypatch.setattr(bounds, "_BOUNDS", tuple(
            (name, gate, log_value, exact and (exact[0], counted(name, exact[1])))
            for name, gate, log_value, exact in bounds._BOUNDS))
        code, out, _ = run(["verify", "--c", "1", "--m", "1", "--n", "2"], capsys)
        assert code == (cli.EXIT_VIOLATION if forged else cli.EXIT_OK)
        assert json.loads(out)["checks"] == {"binom_ok": True, "two_n_ok": not forged}  # L = 10 or 2 against 2 and 4
        assert decided == ["oon_2n", "binom", "farhi"]


class TestSweep:
    def test_row_count_and_content(self, capsys):
        code, out, _ = run(
            ["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "1", "--n-max", "3"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ",".join(cli.sweep_columns())
        assert len(lines) == 1 + 6  # header + pairs m <= n for n <= 3
        row_113 = [ln for ln in lines[1:] if ln.startswith("1,1,3,")]
        assert len(row_113) == 1
        cells = dict(zip(cli.sweep_columns(), row_113[0].split(",")))
        assert cells["quotient"] == "8"
        assert cells["hc"] == "10"
        assert cells["final"] == "NA"

    def test_json_rows_validate(self, capsys):
        code, out, _ = run(
            ["sweep", "--c-min", "2", "--c-max", "2", "--n-min", "1", "--n-max", "4",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        schema = load_schema("sweep_row.schema.json")
        rows = [json.loads(line) for line in out.strip().split("\n")]
        assert len(rows) == 10
        for row in rows:
            jsonschema.validate(row, schema)

    def test_m_policies(self, capsys):
        code, out, _ = run(
            ["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "1", "--n-max", "6",
             "--m-policy", "half_ceil"],
            capsys,
        )
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 6
        for row in rows:
            c, m, n = map(int, row.split(",")[:3])
            assert m == (n + 1) // 2

        code, out, _ = run(
            ["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "1", "--n-max", "6",
             "--m-policy", "fixed:4"],
            capsys,
        )
        rows = out.strip().split("\n")[1:]
        assert [int(r.split(",")[2]) for r in rows] == [4, 5, 6]

        code, out, _ = run(
            ["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "8", "--n-max", "8",
             "--m-policy", "frontier"],
            capsys,
        )
        rows = out.strip().split("\n")[1:]
        assert [r.split(",")[:3] for r in rows] == [["1", "6", "8"]]

    def test_canonical_order(self, capsys):
        code, out, _ = run(
            ["sweep", "--c-min", "1", "--c-max", "2", "--n-min", "1", "--n-max", "3"],
            capsys,
        )
        keys = []
        for line in out.strip().split("\n")[1:]:
            c, m, n = map(int, line.split(",")[:3])
            keys.append((c, n, m))
        assert keys == sorted(keys)

    def test_config_errors(self, capsys):
        code, _, err = run(
            ["sweep", "--c-min", "3", "--c-max", "1", "--n-min", "1", "--n-max", "2"],
            capsys,
        )
        assert code == 1
        assert "usage:" in err
        code, _, _ = run(
            ["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "1", "--n-max", "2",
             "--m-policy", "bogus"],
            capsys,
        )
        assert code == 1
        code, _, _ = run(
            ["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "1", "--n-max", "2",
             "--parallelism", "0"],
            capsys,
        )
        assert code == 1

    def test_parallelism_determinism(self, tmp_path):
        outputs = []
        for workers in (1, 4):
            target = tmp_path / f"sweep_{workers}.csv"
            code = cli.main(
                ["sweep", "--c-min", "1", "--c-max", "2", "--n-min", "1", "--n-max", "8",
                 "--parallelism", str(workers), "--out", str(target)]
            )
            assert code == 0
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("policy, n_max, fmt, workers", [
        ("all", 40, "csv", 1),
        ("all", 40, "csv", 2),
        ("half_ceil", 260, "json", 1),
        ("frontier", 220, "csv", 1),
        ("all", 40, "json", 1),
        ("frontier", 220, "json", 1),
    ])
    def test_golden_bytes(self, policy, n_max, fmt, workers, capsys):
        code, out, _ = run(
            ["sweep", "--c-min", "1", "--c-max", "5", "--n-min", "1", "--n-max", str(n_max),
             "--m-policy", policy, "--format", fmt, "--parallelism", str(workers)],
            capsys,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_SHA256[(policy, n_max, fmt)]

    @pytest.mark.parametrize("policy, n_max", [("all", 30), ("half_ceil", 90), ("frontier", 90), ("fixed:7", 90)])
    def test_sliding_windows_at_any_parallelism_equal_rebuilt_ones(self, policy, n_max, tmp_path, monkeypatch):
        argv = ["sweep", "--c-min", "1", "--c-max", "3", "--n-min", "1", "--n-max", str(n_max),
                "--m-policy", policy, "--format", "json"]
        outputs = []
        for workers in (1, 2, 3):
            target = tmp_path / f"sweep_{workers}.json"
            assert cli.main(argv + ["--parallelism", str(workers), "--out", str(target)]) == 0
            outputs.append(target.read_bytes())
        # every row's start rebuilt from lcm_range and _divisor_parts, as `verify` computes it
        real_move = Window.move
        monkeypatch.setattr(Window, "move", lambda self, c, m, n: real_move(Window(), c, m, n))
        target = tmp_path / "rebuilt.json"
        assert cli.main(argv + ["--out", str(target)]) == 0
        assert outputs == [target.read_bytes()] * 3

    def test_violation_exit_2(self, capsys, monkeypatch):
        def forged(c, n, ms, start):
            return [row[:4] + (("forged sweep failure",),) for row in real(c, n, ms, start)]

        real = bounds.row_checks
        monkeypatch.setattr(bounds, "row_checks", forged)
        code, out, err = run(
            ["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "1", "--n-max", "2"],
            capsys,
        )
        assert code == 2
        assert "VIOLATION" in err
        assert len(out.strip().split("\n")) == 1 + 3  # rows still emitted


class TestSweepWindowFailure:
    # the window [1, 2] of c = 1 holds P = (1 + i)(2 + i) = 1 + 3i; forged to 2 + 3i, its next pop,
    # (2 + 3i)(1 - i) / 2 = 5/2 + i/2, leaves a remainder: row n = 3 at parallelism 1, row n = 4 in
    # worker 1 of 2
    @pytest.mark.parametrize("workers, reason", [
        (1, "sweep window failed: pop of m=1 from the window [1, 2] of c=1 left a remainder"),
        (2, "sweep worker failed: WindowError: pop of m=1 from the window [1, 2] of c=1 left a remainder"),
    ], ids=["serial", "forked"])
    def test_forged_window_exits_1_in_one_line(self, workers, reason, capsys, monkeypatch):
        def forging(self, c, m, n):
            moved = real(self, c, m, n)
            if (self.c, self.m, self.n) == (1, 1, 2):
                self.a += 1
            return moved

        real, rebuilds = Window.move, []
        monkeypatch.setattr(Window, "move", forging)
        parts = bounds._divisor_parts
        monkeypatch.setattr(bounds, "_divisor_parts", lambda c, m, n: rebuilds.append((c, m, n)) or parts(c, m, n))
        code, out, err = run(["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "1", "--n-max", "6",
                              "--m-policy", "half_ceil", "--parallelism", str(workers)], capsys)
        assert code == 1
        assert err.splitlines() == [f"quadlcm: error: {reason}"]
        if workers == 1:  # rows n = 1 and 2 were written, and the window was built once, at n = 1
            assert [line.split(",")[:3] for line in out.splitlines()[1:]] == [["1", "1", "1"], ["1", "1", "2"]]
            assert rebuilds == [(1, 1, 1)]
        assert_no_child_left()


class TestBezout:
    def test_k1(self, capsys):
        code, out, _ = run(["bezout", "--c", "1", "--k", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("bezout_certificate.schema.json"))
        assert doc["d"] == 5
        assert doc["r"] == [-4]
        assert doc["s"] == [1, -2]

    def test_k0(self, capsys):
        code, out, _ = run(["bezout", "--c", "1", "--k", "0"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["d"] == 1
        assert doc["r"] == [0]
        assert doc["s"] == [-1]

    def test_alpha_trimmed(self, capsys):
        for k in (0, 2, 5):
            code, out, _ = run(["bezout", "--c", "2", "--k", str(k)], capsys)
            doc = json.loads(out)
            assert len(doc["alpha"]) <= k + 1

    @pytest.mark.parametrize("failure", ["disagreement"])
    def test_failed_certificate_exits_2_in_one_line(self, failure, capsys, monkeypatch):
        # a wrong closed-form term 2d * a_0: one VIOLATION line, no traceback
        real = poly._scaled_newton_terms

        def forged(c, k):
            (a, b), *rest = real(c, k)
            return [(a + 1, b)] + rest

        monkeypatch.setattr(poly, "_scaled_newton_terms", forged)
        code, out, err = run(["bezout", "--c", "3", "--k", "5"], capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == ["VIOLATION at (c,k)=(3, 5): closed-form and sum-form Newton coefficients disagree"]

    @pytest.mark.parametrize("existing", [None, b"an earlier certificate\n"], ids=["absent", "present"])
    def test_failed_certificate_leaves_out_as_it_was(self, existing, tmp_path, capsys, monkeypatch):
        # the certificate is built and verified before --out is opened
        real = poly._scaled_newton_terms
        monkeypatch.setattr(poly, "_scaled_newton_terms", lambda c, k: real(c, k)[::-1])
        target = tmp_path / "cert.json"
        if existing is not None:
            target.write_bytes(existing)
        code, out, err = run(["bezout", "--c", "3", "--k", "5", "--out", str(target)], capsys)
        assert (code, out, len(err.splitlines())) == (2, "", 1)
        assert (target.read_bytes() if target.exists() else None) == existing

    def test_usage_error(self, capsys):
        code, _, err = run(["bezout", "--c", "0", "--k", "1"], capsys)
        assert code == 1
        assert "usage:" in err
        code, _, _ = run(["bezout", "--c", "1", "--k", "-1"], capsys)
        assert code == 1

    def test_k_past_the_limit_exits_1_before_any_work(self, tmp_path, capsys, monkeypatch):
        # k = 500 is the last k built (here a stand-in certificate, so the test stays fast);
        # 501 exits 1 in one line before anything is built and before --out is opened
        asked, real = [], poly.bezout_certificate
        monkeypatch.setattr(poly, "bezout_certificate", lambda c, k: asked.append(k) or real(c, 2))
        code, out, err = run(["bezout", "--c", "3", "--k", "500"], capsys)
        assert (code, asked, err) == (0, [500], "") and out
        target = tmp_path / "cert.json"
        code, out, err = run(["bezout", "--c", "3", "--k", "501", "--out", str(target)], capsys)
        assert (code, out, asked) == (1, "", [500])
        assert err.splitlines() == ["quadlcm: error: need k <= 500, got 501"]
        assert not target.exists()


    @pytest.mark.parametrize("c, k", sorted(BEZOUT_SHA256))
    def test_golden_bytes(self, c, k, capsys):
        code, out, _ = run(["bezout", "--c", str(c), "--k", str(k)], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == BEZOUT_SHA256[(c, k)]

    def test_golden_grid_digest(self):
        # one sha256 over the `bezout` documents of every c <= 5, k <= 40, in process
        digest = hashlib.sha256()
        for c in range(1, 6):
            for k in range(41):
                doc = cli.certificate_to_json(poly.bezout_certificate(c, k))
                digest.update((json.dumps(doc, indent=2) + "\n").encode())
        assert digest.hexdigest() == BEZOUT_GRID_SHA256


class TestCertifiedC:
    # the prefactor logs of c are certified only for c < 2^61; past that,
    # each log command exits 1 with one line before any work or output
    @pytest.mark.parametrize("argv, name", [
        (lambda c: ["verify", "--c", str(c), "--m", "5", "--n", "6"], "c"),
        (lambda c: ["table", "--c", str(c), "--n-max", "3"], "c"),
        (lambda c: ["sweep", "--c-min", str(2**61 - 1), "--c-max", str(c), "--n-min", "1", "--n-max", "3"], "c_max"),
    ], ids=["verify", "table", "sweep"])
    def test_last_certified_c_runs_and_the_next_exits_1(self, argv, name, tmp_path, capsys):
        code, out, err = run(argv(2**61 - 1), capsys)
        assert code == 0 and out and err == ""
        target = tmp_path / "out.txt"
        code, out, err = run(argv(2**61) + ["--out", str(target)], capsys)
        assert code == 1 and out == ""
        assert err.splitlines() == [f"quadlcm: error: need {name} < 2^61 for certified log bounds, got {2**61}"]
        assert not target.exists()


class TestOutputErrors:
    # verify, sweep and table open the output before any work starts, so
    # their first piece of work raises if reached; bezout opens it only after
    # the certificate is built and verified, so a failed one leaves --out as
    # it was, and an unopenable --out is reported after the build
    @pytest.mark.parametrize("argv, work", [
        (["verify", "--c", "1", "--m", "1", "--n", "3"], "row_checks"),
        (["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "1", "--n-max", "2"], "row_checks"),
        (["bezout", "--c", "1", "--k", "2"], "bezout_certificate"),
        (["table", "--c", "1", "--n-max", "3"], "row_checks"),
    ])
    def test_missing_directory(self, argv, work, tmp_path, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("work started before the output was opened")

        built = []
        if work == "bezout_certificate":  # each command imports its work from poly or bounds when it runs
            real = poly.bezout_certificate
            monkeypatch.setattr(poly, work, lambda c, k: built.append((c, k)) or real(c, k))
        else:
            monkeypatch.setattr(bounds, work, unreachable)
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(argv + ["--out", str(target)], capsys)
        assert built == ([(1, 2)] if work == "bezout_certificate" else [])
        assert code == 1
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert str(target) in err

    def test_bad_m_policy_opens_no_output(self, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        code, out, err = run(["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "1", "--n-max", "2",
                              "--m-policy", "bogus", "--out", str(target)], capsys)
        assert code == 1
        assert out == ""
        assert "unknown m policy 'bogus'" in err
        assert not target.exists()

    @pytest.mark.parametrize("policy, reason", [
        ("fixed: 7", "bad m policy 'fixed: 7'"),
        ("fixed:+7", "bad m policy 'fixed:+7'"),
        ("fixed:1_0", "bad m policy 'fixed:1_0'"),  # int() reads it as 10
        ("fixed:7 ", "bad m policy 'fixed:7 '"),
        ("fixed:\u0667", "bad m policy 'fixed:\u0667'"),  # a non-ASCII digit seven
        ("fixed:-7", "bad m policy 'fixed:-7'"),
        ("fixed:", "bad m policy 'fixed:'"),
        ("fixed:0", "fixed m must be >= 1, got 0"),
    ])
    def test_bad_fixed_m_opens_no_output(self, policy, reason, tmp_path, capsys):
        # fixed:<m> takes ASCII digits only
        target = tmp_path / "sweep.csv"
        code, out, err = run(["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "1", "--n-max", "2",
                              "--m-policy", policy, "--out", str(target)], capsys)
        assert (code, out) == (1, "")
        assert err.splitlines()[0] == f"quadlcm: error: {reason}" and err.splitlines()[1].startswith("usage:")
        assert not target.exists()

    def test_fixed_m_takes_leading_zeros(self, capsys):
        argv = ["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "1", "--n-max", "9"]
        assert run(argv + ["--m-policy", "fixed:07"], capsys) == run(argv + ["--m-policy", "fixed:7"], capsys)

    def test_verify_beyond_int_str_limit(self, capsys):
        # the divisor record holds integers beyond Python's default
        # 4300-digit limit on int-to-str conversion at this triple
        code, out, _ = run(["verify", "--c", "1", "--m", "700", "--n", "1400"], capsys)
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("verify_report.schema.json"))
        assert max(len(str(v)) for v in doc["divisor"].values()) > 4300


class TestTable:
    def test_ratios_below_one(self, capsys):
        code, out, _ = run(["table", "--c", "1", "--n-max", "10"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        assert header[:4] == ["c", "n", "m", "logL"]
        for line in lines[1:]:
            cells = dict(zip(header, line.split(",")))
            for name in bounds.BOUND_NAMES:
                if cells[name] != "NA":
                    assert float(cells[name]) <= 1 + 1e-9

    def test_oon_gate_in_table(self, capsys):
        _, out, _ = run(["table", "--c", "2", "--n-max", "5"], capsys)
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        for line in lines[1:]:
            cells = dict(zip(header, line.split(",")))
            n, m = int(cells["n"]), int(cells["m"])
            if m <= (n + 1) // 2:
                assert cells["oon_2n"] != "NA"
                assert float(cells["oon_2n"]) <= 1
            else:
                assert cells["oon_2n"] == "NA"

    def test_deterministic(self, capsys):
        _, out1, _ = run(["table", "--c", "1", "--n-max", "7"], capsys)
        _, out2, _ = run(["table", "--c", "1", "--n-max", "7"], capsys)
        assert out1 == out2

    @pytest.mark.parametrize("c", sorted(TABLE_SHA256))
    def test_golden_bytes(self, c, capsys):
        code, out, _ = run(["table", "--c", str(c), "--n-max", "70"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == TABLE_SHA256[c]


# sweep rows that fail in a forked worker
def _raising_row(row):
    c, n, ms, _ = row  # the row and its process's `Window.move`
    raise RuntimeError(f"forged worker failure at {(c, ms[0], n)}")


def _dying_row(row):
    os._exit(3)


def _first_row_raises(row):
    if row[1] == 1:
        _raising_row(row)
    time.sleep(60)  # the other rows outlast the sweep unless their workers are killed


def assert_no_child_left():
    # every worker was reaped, so this process has no child at all
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSweepWorkerFailure:
    @pytest.mark.parametrize("row, reason", [
        (_raising_row, "RuntimeError: forged worker failure at (1, 1, 1)"),
        (_dying_row, "worker 0 exited with status 3 before it finished"),
    ])
    def test_exit_1_with_one_line(self, row, reason, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_sweep_row", row)
        code, _, err = run(
            ["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "1", "--n-max", "4",
             "--parallelism", "2"],
            capsys,
        )
        assert code == 1
        assert err.splitlines() == [f"quadlcm: error: sweep worker failed: {reason}"]
        assert_no_child_left()

    def test_busy_workers_are_killed(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_sweep_row", _first_row_raises)
        started = time.monotonic()
        code, _, err = run(
            ["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "1", "--n-max", "4",
             "--parallelism", "2"],
            capsys,
        )
        assert time.monotonic() - started < 30
        assert code == 1
        assert err.splitlines() == [
            "quadlcm: error: sweep worker failed: RuntimeError: forged worker failure at (1, 1, 1)"]
        assert_no_child_left()


def _interrupted(*args):
    raise KeyboardInterrupt


class TestInterrupt:
    # Ctrl-C ends a command with exit 130 and one line, never a traceback
    def test_serial_sweep(self, capsys, monkeypatch):
        monkeypatch.setattr(bounds, "row_checks", _interrupted)
        code, _, err = run(["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "1", "--n-max", "4"], capsys)
        assert code == 130
        assert err.splitlines() == ["quadlcm: error: interrupted"]

    def test_right_after_a_dead_worker_is_reaped(self, capsys, monkeypatch):
        # the interrupt lands between the wait that reaps worker 0 and the end of the stream,
        # so the cleanup must not signal or wait for that worker again
        real = os.waitpid

        def wait_then_interrupt(pid, options):
            monkeypatch.setattr(os, "waitpid", real)
            real(pid, options)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_sweep_row", _dying_row)
        monkeypatch.setattr(os, "waitpid", wait_then_interrupt)
        code, _, err = run(["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "1", "--n-max", "4",
                            "--parallelism", "2"], capsys)
        assert code == 130
        assert err.splitlines() == ["quadlcm: error: interrupted"]
        assert_no_child_left()

    def test_second_interrupt_while_reaping(self, capsys, monkeypatch):
        # a second Ctrl-C lands in the cleanup's first wait, before that worker is reaped: every worker
        # is killed before any wait, the cleanup still reaps all three, and then the interrupt ends the run
        real = os.waitpid

        def interrupted_once(pid, options):
            monkeypatch.setattr(os, "waitpid", real)
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "waitpid", interrupted_once)
        code, _, err = run(["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "1", "--n-max", "6",
                            "--parallelism", "3"], capsys)
        assert os.waitpid is real  # the forged wait ran, in the cleanup: no worker failed before it
        assert code == 130
        assert err.splitlines() == ["quadlcm: error: interrupted"]
        assert_no_child_left()


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls made in this process."""
    calls = []
    real = os.fork

    def recording():
        calls.append(True)
        return real()

    monkeypatch.setattr(os, "fork", recording)
    return calls


class TestForkedWorkers:
    FIVE_ROWS = ["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "1", "--n-max", "5"]

    def test_parallelism_above_the_cap_exits_1_before_any_fork(self, forks, tmp_path, capsys):
        for over in (65, 100000):
            target = tmp_path / f"over_cap_{over}.csv"
            code, out, err = run(self.FIVE_ROWS + ["--parallelism", str(over), "--out", str(target)], capsys)
            assert code == 1 and out == ""
            assert err.splitlines() == [f"quadlcm: error: need parallelism <= 64, got {over}"]
            assert not target.exists()
        assert forks == []

    def test_one_worker_per_row_at_most(self, forks, tmp_path):
        serial, forked = tmp_path / "serial.csv", tmp_path / "forked.csv"
        assert cli.main(self.FIVE_ROWS + ["--out", str(serial)]) == 0
        assert forks == []  # --parallelism 1 runs in this process
        assert cli.main(self.FIVE_ROWS + ["--parallelism", "64", "--out", str(forked)]) == 0
        assert len(forks) == 5
        assert forked.read_bytes() == serial.read_bytes()
        assert_no_child_left()

    def test_full_pipes_give_the_serial_bytes(self, tmp_path):
        # 453 KB of CSV, almost seven 64 KiB pipe buffers: workers block on full pipes
        argv = ["sweep", "--c-min", "1", "--c-max", "2", "--n-min", "1", "--n-max", "40"]
        serial = tmp_path / "serial.csv"
        assert cli.main(argv + ["--out", str(serial)]) == 0
        assert serial.stat().st_size > 6 * 64 * 1024
        for workers in (2, 4, 16):
            target = tmp_path / f"sweep_{workers}.csv"
            assert cli.main(argv + ["--parallelism", str(workers), "--out", str(target)]) == 0
            assert target.read_bytes() == serial.read_bytes()
        assert_no_child_left()

    @pytest.mark.parametrize("argv, forged", [
        (["--n-max", "6"], True),
        (["--n-max", "12", "--m-policy", "fixed:7"], False),
        (["--n-max", "12", "--m-policy", "fixed:7", "--format", "json"], False),
    ], ids=["forged-L", "fixed-7-csv", "fixed-7-json"])
    def test_same_streams_and_exit_code_as_serial(self, argv, forged, capsys, monkeypatch):
        if forged:  # the TestForgedLcm seams
            monkeypatch.setattr(bounds, "lcm_range", lambda c, m, n: 2)
            monkeypatch.setattr(bounds, "_lcm_step", lambda big_l, c, m: 2)
        argv = ["sweep", "--c-min", "1", "--c-max", "2", "--n-min", "1"] + argv
        code, out, err = run(argv, capsys)
        assert run(argv + ["--parallelism", "3"], capsys) == (code, out, err)
        assert_no_child_left()
        assert code == (cli.EXIT_VIOLATION if forged else cli.EXIT_OK)
        assert err.startswith("VIOLATION at (c,m,n)=(1, 1, 2): divisor invariants failed") is forged
        if not forged:  # rows n < 7 have no m, and rows n >= 7 one each
            assert out.count("\n") == 2 * 6 + ("--format" not in argv)


# runs `quadlcm` with stdout buffered, as it is by default
_MAIN = "import sys, quadlcm.cli as cli; sys.exit(cli.main(sys.argv[1:]))"


def finished_alone(argv, stdout, reader=None):
    """Exit code and stderr lines of `quadlcm argv` in its own process group, which
    must be empty once it exits; `reader` acts on its stdout pipe while it runs."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-c", _MAIN, *argv], stdout=stdout, stderr=subprocess.PIPE,
                            text=True, env=env, start_new_session=True)
    try:
        if reader is not None:
            reader(proc.stdout)
        _, err = proc.communicate(timeout=120)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # anything still there after a timeout or failure
            alive = True
        except ProcessLookupError:
            alive = False
        proc.wait()
    assert not alive, "a worker outlived the sweep"
    return proc.returncode, err.splitlines()


class TestSweepParentFailure:
    GRID = ["sweep", "--c-min", "1", "--c-max", "2", "--n-min", "1", "--n-max", "40", "--parallelism", "2"]
    SMALL_GRID = ["sweep", "--c-min", "1", "--c-max", "2", "--n-min", "1", "--n-max", "3", "--parallelism", "2"]

    def test_full_device(self):
        code, err = finished_alone(self.GRID + ["--out", "/dev/full"], subprocess.DEVNULL)
        assert code == 1
        assert err == ["quadlcm: error: [Errno 28] No space left on device"]

    def test_reader_closes_after_one_line(self):
        def read_one_line(pipe):
            assert pipe.readline().startswith("c,m,n,")
            pipe.close()

        code, err = finished_alone(self.GRID, subprocess.PIPE, read_one_line)
        assert code == 1
        assert err == ["quadlcm: error: [Errno 32] Broken pipe"]

    def test_reader_gone_before_a_small_output(self):
        # the whole output fits stdout's buffer, so it fails only when flushed
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            code, err = finished_alone(self.SMALL_GRID, write_end)
        finally:
            os.close(write_end)
        assert code == 1
        assert err == ["quadlcm: error: [Errno 32] Broken pipe"]


class TestForgedLcm:
    # L = 2 at (1, 1, 2) leaves L/D integral but L*(n-m)! not a multiple of
    # (1 + i)(2 + i) = 1 + 3i, so the divisor record's star check must fail;
    # at (1, 2, 2) L/D = 2/5 is not integral, and only the quotient is null;
    # a row's fold takes its first L from lcm_range and the rest from _lcm_step
    SWEEP = ["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "2", "--n-max", "2"]

    @pytest.mark.parametrize("argv", [
        ["verify", "--c", "1", "--m", "1", "--n", "2"],
        SWEEP,
        SWEEP + ["--format", "json"],
        ["table", "--c", "1", "--n-max", "2"],
    ], ids=["verify", "sweep", "sweep-json", "table"])
    def test_exit_2_with_the_row_written(self, argv, capsys, monkeypatch):
        monkeypatch.setattr(bounds, "lcm_range", lambda c, m, n: 2)
        monkeypatch.setattr(bounds, "_lcm_step", lambda big_l, c, m: 2)
        code, out, err = run(argv, capsys)
        assert code == 2
        lines = out.strip().split("\n")
        if argv[0] == "verify":
            doc = json.loads(out)
            jsonschema.validate(doc, load_schema("verify_report.schema.json"))
            assert doc["divisor"]["L"] == 2
            assert any(v.startswith("divisor invariants failed") for v in doc["violations"])
        elif argv[0] == "table":
            assert len(lines) == 1 + 3
            assert "VIOLATION at (c,m,n)=(1, 1, 2): bound invariants failed" in err
        elif "json" in argv:
            schema = load_schema("sweep_row.schema.json")
            rows = [json.loads(ln) for ln in lines]
            for row in rows:
                jsonschema.validate(row, schema)
            assert [(r["m"], r["L"], r["D_num"], r["D_den"], r["quotient"]) for r in rows] == [
                (1, 2, 2, 1, 1), (2, 2, 5, 1, None)]
            assert all(r[col] is not None for r in rows for col in ("hc", "hc_bound", "star_x", "star_y"))
        else:
            assert [ln.split(",")[:7] for ln in lines[1:]] == [
                ["1", "1", "2", "2", "2", "1", "1"], ["1", "2", "2", "2", "5", "1", "NA"]]
            assert all("NA" not in ln.split(",")[7:11] for ln in lines[1:])
            assert "VIOLATION at (c,m,n)=(1, 1, 2): divisor invariants failed" in err


def _projected_row(row):
    """The sweep row of one triple as the `verify` document projected onto the sweep columns."""
    doc = cli.report_to_json(row)
    cells = {**doc["bounds"], **doc["divisor"]}
    cells.update((name, bv["log_value"]) for name, bv in doc["bounds"]["bounds"].items())
    return {col: cells.get(col) for col in cli.sweep_columns()}


def _forge_lcm(monkeypatch):
    """The TestForgedLcm seams: L = 2 everywhere, so L/D is not integral at most triples."""
    monkeypatch.setattr(bounds, "lcm_range", lambda c, m, n: 2)
    monkeypatch.setattr(bounds, "_lcm_step", lambda big_l, c, m: 2)


class TestSweepRowWriter:
    # `sweep` and `table` join their cells by hand: csv.writer of the same
    # cells is their oracle, and the projection of the `verify` document gives
    # a sweep's cells, so the sweep rows cannot drift from `verify`
    @pytest.mark.parametrize("forged", [False, True], ids=["true-L", "forged-L"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_equal_the_projected_verify_document(self, fmt, forged, monkeypatch, capsys):
        if forged:
            _forge_lcm(monkeypatch)
        code, written, err = run(["sweep", "--c-min", "1", "--c-max", "3", "--n-min", "1", "--n-max", "12",
                                  "--format", fmt, "--parallelism", "1"], capsys)
        rows = [row for c in (1, 2, 3) for n in range(1, 13) for row in bounds.row_checks(c, n, range(1, n + 1))]
        projected = [_projected_row(row) for row in rows]
        expected = io.StringIO()
        if fmt == "csv":
            writer = csv.writer(expected, lineterminator="\n")
            writer.writerow(cli.sweep_columns())
            writer.writerows(["NA" if v is None else str(v) for v in cells.values()] for cells in projected)
        else:
            expected.writelines(json.dumps(cells) + "\n" for cells in projected)
        assert written == expected.getvalue()
        assert err == "".join(f"VIOLATION at (c,m,n)={values[:3]}: {v}\n"
                              for values, *_, violations in rows for v in violations)
        assert len(projected) == 3 * 12 * 13 // 2
        assert any(cells["farhi"] is None for cells in projected)  # an inapplicable bound
        assert any(cells["quotient"] is None for cells in projected) is forged
        assert code == (cli.EXIT_VIOLATION if forged else cli.EXIT_OK)
        assert ("VIOLATION" in err) is forged

    @pytest.mark.parametrize("forged", [False, True], ids=["true-L", "forged-L"])
    def test_table_rows_equal_the_csv_writer(self, forged, monkeypatch, capsys):
        if forged:
            _forge_lcm(monkeypatch)
        code, written, err = run(["table", "--c", "2", "--n-max", "12"], capsys)
        expected, violations = io.StringIO(), []
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(("c", "n", "m", "logL") + bounds.BOUND_NAMES)
        for n in range(1, 13):
            for values, *_, failures in bounds.row_checks(2, n, range(1, n + 1), None):
                m, log_l, logs = values[1], values[11], values[12:]
                writer.writerow([2, n, m, cli.fmt_log(log_l)] + [
                    "NA" if v is None else cli.fmt_log((v << bounds.PRECISION_BITS) // log_l) for v in logs])
                violations += [f"VIOLATION at (c,m,n)={(2, m, n)}: {failure}\n" for failure in failures]
        assert written == expected.getvalue()
        assert "NA" in written
        assert err == "".join(violations)
        assert bool(violations) is forged
        assert code == (cli.EXIT_VIOLATION if forged else cli.EXIT_OK)


# runs one command in a fresh interpreter and prints its exit code, its
# stdout and every module it loaded; with "block" first, importing mpmath fails
_MODULES_PROBE = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["mpmath"] = None
import quadlcm.cli as cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(sys.argv[2:])
print(json.dumps({"code": code, "out": out.getvalue(), "modules": sorted(sys.modules)}))
"""


def _python(script, *args):
    """The stdout of `script` run in a fresh interpreter that imports from the source tree."""
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300, check=True).stdout


def probe(argv, block_mpmath=False):
    doc = json.loads(_python(_MODULES_PROBE, "block" if block_mpmath else "-", *argv))
    assert doc["code"] == 0
    return doc


def loaded_modules(argv):
    return set(probe(argv)["modules"])


class TestColdStart:
    def test_bezout_loads_neither_mpmath_nor_the_pool(self):
        modules = loaded_modules(["bezout", "--c", "3", "--k", "5"])
        assert "mpmath.ctx_mp" not in modules
        assert not [name for name in modules if name.startswith("mpmath.")]
        assert "concurrent.futures.process" not in modules

    @pytest.mark.parametrize("argv", [
        ["sweep", "--c-min", "1", "--c-max", "2", "--n-min", "1", "--n-max", "6", "--parallelism", "1"],
        ["table", "--c", "2", "--n-max", "6"],
        ["verify", "--c", "3", "--m", "5", "--n", "60"],
    ], ids=["sweep", "table", "verify"])
    def test_runs_without_mpmath(self, argv):
        doc = probe(argv)
        assert not [name for name in doc["modules"] if name == "mpmath" or name.startswith("mpmath.")]
        assert "concurrent.futures.process" not in doc["modules"]
        assert "quadlcm.workers" not in doc["modules"]
        # the same stdout when mpmath cannot be imported at all
        assert probe(argv, block_mpmath=True)["out"] == doc["out"] != ""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--c-min", "1", "--c-max", "2", "--n-min", "1", "--n-max", "6"],
        ["table", "--c", "2", "--n-max", "6"],
        ["verify", "--c", "3", "--m", "5", "--n", "60"],
    ], ids=["sweep", "table", "verify"])
    def test_bound_commands_load_neither_fractions_nor_decimal(self, argv):
        # every claim is decided in integers, Farhi's bound as 25 * 500^n * L >= 8 * 721^n
        assert not {"fractions", "decimal", "numbers"} & loaded_modules(argv)

    def test_forked_sweep_loads_neither_futures_nor_multiprocessing(self):
        modules = loaded_modules(["sweep", "--c-min", "1", "--c-max", "2", "--n-min", "1", "--n-max", "6",
                                  "--parallelism", "2"])
        assert not [name for name in modules if name.split(".")[0] in ("concurrent", "multiprocessing")]
        assert "quadlcm.workers" in modules

    def test_import_loads_neither_dataclasses_nor_poly(self):
        modules = _python("import sys, quadlcm.cli; print(' '.join(sys.modules))").split()
        assert "quadlcm.cli" in modules and "quadlcm.fixedlog" in modules
        assert "quadlcm.bounds" not in modules  # the commands that use it load it
        assert "dataclasses" not in modules
        assert "quadlcm.poly" not in modules

    def test_only_bezout_loads_poly(self):
        assert "quadlcm.poly" not in loaded_modules(["table", "--c", "1", "--n-max", "3"])
        assert "quadlcm.poly" in loaded_modules(["bezout", "--c", "1", "--k", "2"])

    @pytest.mark.parametrize("argv, loads_bounds", [
        (["bezout", "--c", "3", "--k", "5"], False),
        (["verify", "--c", "1", "--m", "2", "--n", "9"], True),
        (["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "1", "--n-max", "3"], True),
        (["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "1", "--n-max", "3", "--format", "json"], True),
        (["table", "--c", "1", "--n-max", "3"], True),
    ], ids=["bezout", "verify", "sweep", "sweep-json", "table"])
    def test_only_the_bound_commands_load_bounds(self, argv, loads_bounds):
        assert ("quadlcm.bounds" in loaded_modules(argv)) is loads_bounds

    def test_only_sweep_loads_the_window(self):
        assert "quadlcm.window" in loaded_modules(["sweep", "--c-min", "1", "--c-max", "1", "--n-min", "1", "--n-max", "3"])
        for argv in (["verify", "--c", "1", "--m", "2", "--n", "9"], ["table", "--c", "1", "--n-max", "3"]):
            assert "quadlcm.window" not in loaded_modules(argv)


# runs each command line in one fresh interpreter under a profiler, set before
# the package is imported, that records every Python function entered; then
# prints, for each module of the package, whether each of its module-level
# functions was entered, and each method and property of its classes
_REACH_PROBE = """
import contextlib, inspect, io, json, sys
entered = set()
sys.setprofile(lambda frame, event, arg: entered.add(frame.f_code) if event == "call" else None)
import quadlcm.cli as cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, (argv, code)
sys.setprofile(None)
from quadlcm import bounds, fixedlog, poly, ring, window, workers

def own(value, module):
    value = inspect.unwrap(value) if callable(value) else value
    return value if inspect.isfunction(value) and value.__module__ == module.__name__ else None

report = {}
for module in (ring, poly, bounds, window, fixedlog, cli, workers):
    functions, methods = {}, {}
    for name, value in vars(module).items():
        if own(value, module):
            functions[name] = own(value, module).__code__ in entered
        elif inspect.isclass(value) and value.__module__ == module.__name__:
            for attr, member in vars(value).items():
                member = getattr(member, "__func__", member)  # classmethod, staticmethod
                member = own(member.fget if isinstance(member, property) else member, module)
                if member:
                    methods[f"{name}.{attr}"] = member.__code__ in entered
    report[module.__name__] = {"functions": functions, "methods": methods}
print(json.dumps(report))
"""


class TestDeadCode:
    COMMANDS = [
        ["verify", "--c", "3", "--m", "5", "--n", "60"],
        ["sweep", "--c-min", "1", "--c-max", "2", "--n-min", "1", "--n-max", "12", "--m-policy", "frontier"],
        ["table", "--c", "2", "--n-max", "8"],
        ["bezout", "--c", "3", "--k", "5"],
    ]

    @pytest.fixture(scope="class")
    def reached(self):
        return json.loads(_python(_REACH_PROBE, json.dumps(self.COMMANDS)))

    LIBRARY = ("quadlcm.ring", "quadlcm.poly", "quadlcm.bounds", "quadlcm.window", "quadlcm.fixedlog")
    # the methods no successful command runs that stay, each for its reason
    UNRUN_METHODS = {
        "quadlcm.ring": ["_Quad.__mul__",  # perfbench/tracer.py counts it by name for ring.quadint_mul
                         "_Record.__delattr__",  # the frozen guard, with __setattr__: safety code
                         "_Record.__repr__",  # pytest's failure messages read it
                         "_Record.__setattr__"],
        "quadlcm.cli": ["_Parser.error"],  # runs on bad input only
        "quadlcm.poly": ["QuadPoly.__mul__"],  # perfbench/tracer.py counts it by name for poly.quadpoly_mul
    }
    # the private functions no successful command runs that stay, each for its reason
    UNRUN_PRIVATE = {
        "quadlcm.ring": ["_check_same_ring"],  # the ring guard of the two `__mul__` methods above
    }

    @staticmethod
    def unreached(found):
        return sorted(name for name, entered in found.items() if not entered)

    def test_every_public_library_function_is_run_by_a_command(self, reached):
        report = {module: {name: entered for name, entered in reached[module]["functions"].items()
                           if not name.startswith("_")}
                  for module in ("quadlcm.ring", "quadlcm.poly", "quadlcm.bounds")}
        assert all(report.values())
        assert {module: self.unreached(found) for module, found in report.items() if self.unreached(found)} == {}

    def test_every_private_library_function_is_run_by_a_command(self, reached):
        report = {module: {name: entered for name, entered in reached[module]["functions"].items()
                           if name.startswith("_")}
                  for module in self.LIBRARY}
        assert {"_row_fold", "_divisor_checks", "_times_linear", "_scaled_newton_terms", "_value",
                "_check_same_ring", "_ln", "_log_str"} <= set().union(*report.values())
        assert {module: self.unreached(found) for module, found in report.items()
                if self.unreached(found)} == self.UNRUN_PRIVATE

    def test_rational_routes_left_the_library(self):
        # the Newton coefficients at rational points are test oracles; a certificate stays in Z[sqrt(-c)]
        assert not {"_closed_forms", "_alternating_sums", "_newton_series", "PoleError"} & set(vars(poly))

    def test_every_cli_function_is_run_by_a_command(self, reached):
        # private helpers too, so that no writer outlives its caller
        functions = reached["quadlcm.cli"]["functions"]
        assert {"main", "_open_out", "_sweep_row"} <= set(functions)
        assert self.unreached(functions) == []

    def test_every_method_is_run_by_a_command(self, reached):
        # every class of the package, properties and dunder methods included
        methods = {module: report["methods"] for module, report in reached.items()}
        assert {"Window.move", "QuadPoly.coeffs", "BezoutCertificate.alpha", "_Record.__init_subclass__",
                "_Record.__eq__"} <= set().union(*methods.values())
        unreached = {module: self.unreached(found) for module, found in methods.items()}
        assert {module: names for module, names in unreached.items() if names} == self.UNRUN_METHODS
