import json
import random

import pytest

from espindex.cli import main
from espindex.index import EspIndex
from espindex.oracle import naive_search

from conftest import near_duplicates


@pytest.fixture
def corpus(tmp_path, rng):
    text = near_duplicates(rng, 30000, copies=3)
    tfile = tmp_path / "text.bin"
    tfile.write_bytes(text)
    ifile = tmp_path / "text.idx"
    assert main(["build", "-i", str(tfile), "-o", str(ifile)]) == 0
    return text, str(tfile), str(ifile)


def test_build_reports_stats(tmp_path, capsys):
    tfile = tmp_path / "t.txt"
    tfile.write_bytes(b"ababababbab")
    rc = main(["build", "-i", str(tfile), "-o", str(tmp_path / "t.idx")])
    out = capsys.readouterr().out
    assert rc == 0
    fields = dict(line.split("\t") for line in out.strip().splitlines())
    assert fields["text_bytes"] == "11"
    assert int(fields["rules"]) > 0
    assert int(fields["height"]) >= 2
    assert float(fields["build_seconds"]) >= 0.0


def test_build_single_byte(tmp_path, capsys):
    tfile = tmp_path / "t.txt"
    tfile.write_bytes(b"x")
    assert main(["build", "-i", str(tfile), "-o", str(tmp_path / "t.idx")]) == 0
    fields = dict(line.split("\t") for line in capsys.readouterr().out.strip().splitlines())
    assert fields["rules"] == "0"


def test_build_missing_input(tmp_path, capsys):
    rc = main(["build", "-i", str(tmp_path / "nope"), "-o", str(tmp_path / "t.idx")])
    assert rc == 2
    assert not (tmp_path / "t.idx").exists()


def test_build_empty_input(tmp_path):
    tfile = tmp_path / "empty"
    tfile.write_bytes(b"")
    assert main(["build", "-i", str(tfile), "-o", str(tmp_path / "t.idx")]) == 1


def test_count_single_pattern(corpus, capsys):
    text, _, ifile = corpus
    pat = text[100:108]
    rc = main(["count", "-x", ifile, "-q", pat.hex(), "--hex"])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    pid, cnt, micros = line.split("\t")
    assert pid == "q0"
    assert int(cnt) == len(naive_search(text, pat))
    assert float(micros) >= 0


def test_locate_positions_zero_based(corpus, capsys):
    text, _, ifile = corpus
    pat = text[5000:5020]
    rc = main(["locate", "-x", ifile, "-q", pat.hex(), "--hex"])
    assert rc == 0
    fields = capsys.readouterr().out.strip().split("\t")
    got = [int(x) for x in fields[2].split()] if fields[2] else []
    assert got == [p - 1 for p in naive_search(text, pat)]


def test_locate_simple_zero_based(tmp_path, capsys):
    tfile = tmp_path / "t.txt"
    tfile.write_bytes(b"aaaa")
    ifile = tmp_path / "t.idx"
    main(["build", "-i", str(tfile), "-o", str(ifile)])
    capsys.readouterr()
    assert main(["locate", "-x", str(ifile), "-q", "aa"]) == 0
    fields = capsys.readouterr().out.strip().split("\t")
    assert fields[2] == "0 1 2"


def test_pattern_file_and_json(corpus, tmp_path, capsys):
    text, _, ifile = corpus
    pfile = tmp_path / "pats.txt"
    pats = [text[10:25], text[40:45], b"zzzznotthere"]
    pfile.write_bytes(b"\n".join(pats) + b"\n")
    rc = main(["count", "-x", ifile, "-f", str(pfile), "--format", "json"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["count"] for r in rows] == [len(naive_search(text, p)) for p in pats]


def test_hex_patterns(corpus, capsys):
    text, _, ifile = corpus
    pat = text[777:785]
    rc = main(["count", "-x", ifile, "-q", pat.hex(), "--hex"])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert int(line.split("\t")[1]) == len(naive_search(text, pat))


def test_empty_pattern_line_continues(corpus, capsys):
    text, _, ifile = corpus
    rc = main(["count", "-x", ifile, "-q", "", "-q", text[3:9].hex(), "--hex"])
    captured = capsys.readouterr()
    assert rc == 4  # per-line error reported, batch continues
    assert "empty pattern" in captured.err
    assert captured.out.count("\n") == 1


@pytest.mark.parametrize("layout, blank", [(b"%s\n\n%s\n", "f1"), (b"\n%s\n%s\n", "f0")])
def test_blank_pattern_file_line_is_an_error(corpus, tmp_path, capsys, layout, blank):
    # a blank line is an empty pattern wherever it stands in the file
    text, _, ifile = corpus
    pats = [p for p in (text[i : i + 6] for i in range(0, 600, 6)) if b"\n" not in p][:2]
    pfile = tmp_path / "pats.txt"
    pfile.write_bytes(layout % tuple(pats))
    rc = main(["count", "-x", ifile, "-f", str(pfile)])
    captured = capsys.readouterr()
    assert rc == 4
    assert f"{blank}: empty pattern" in captured.err
    rows = [line.split("\t") for line in captured.out.splitlines()]
    assert [int(r[1]) for r in rows] == [len(naive_search(text, p)) for p in pats]


def test_extract_round_trip(corpus, capsysbinary):
    text, _, ifile = corpus
    rc = main(["extract", "-x", ifile, "-p", "0", "-l", str(len(text))])
    assert rc == 0
    assert capsysbinary.readouterr().out == text


def test_extract_boundaries(corpus, capsysbinary):
    text, _, ifile = corpus
    assert main(["extract", "-x", ifile, "-p", str(len(text) - 1), "-l", "1"]) == 0
    assert capsysbinary.readouterr().out == text[-1:]
    assert main(["extract", "-x", ifile, "-p", str(len(text)), "-l", "1"]) == 4


def test_stats_accounting(corpus, capsys):
    text, _, ifile = corpus
    assert main(["stats", "-x", ifile, "--format", "json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["u"] == len(text)
    # magic, header, map, B's length, A's header and the checksum, with the
    # two payloads, account for the whole file up to their word padding
    overhead = 8 + 32 + 512 + 8 + 9 + 8
    payload = info["b_bytes"] + info["a_bytes"]
    assert payload + overhead <= info["file_bytes"] <= payload + overhead + 14
    assert "len_bytes" not in info
    # resident bytes: three int64 columns; A's symbols are a view of the
    # right column and count there only
    symbols = info["sigma"] + info["n"] + 1
    for col in ("left", "right", "lengths"):
        assert info[f"resident_{col}_bytes"] == 8 * symbols
    assert "resident_level_of_bytes" not in info
    assert 0 < info["resident_a_bytes"] < 8 * info["n"]
    assert info["resident_b_bytes"] >= info["b_bytes"]
    parts = [v for k, v in info.items() if k.startswith("resident_") and k != "resident_bytes"]
    assert len(parts) == 5 and sum(parts) == info["resident_bytes"]

    assert main(["stats", "-x", ifile]) == 0
    plain = capsys.readouterr().out
    assert "compression_ratio" in plain


def test_old_format_is_a_format_error(corpus, tmp_path, capsys):
    _, _, ifile = corpus
    blob = bytearray(open(ifile, "rb").read())
    assert blob[:8] == b"ESPIDX02"
    blob[6:8] = b"01"
    old = tmp_path / "old.idx"
    old.write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["count", "-x", str(old), "-q", "abc"]) == 3
    assert "espindex build" in capsys.readouterr().err


def test_stats_checksum_error(corpus, tmp_path):
    _, _, ifile = corpus
    blob = bytearray(open(ifile, "rb").read())
    blob[600] ^= 1
    bad = tmp_path / "bad.idx"
    bad.write_bytes(bytes(blob))
    assert main(["stats", "-x", str(bad)]) == 3


def test_missing_index_is_io_error(tmp_path):
    assert main(["count", "-x", str(tmp_path / "none.idx"), "-q", "a"]) == 2


def test_usage_errors(corpus, capsys):
    _, _, ifile = corpus
    assert main(["count", "-x", ifile]) == 1  # no patterns
    assert main(["bench", "-x", ifile, "--lengths", "ten"]) == 1
    for samples in ("0", "-3"):
        assert main(["bench", "-x", ifile, "--lengths", "4", "--samples", samples]) == 1
        assert "--samples must be positive" in capsys.readouterr().err


def test_bench_deterministic_tsv(corpus, capsys):
    _, _, ifile = corpus
    args = ["bench", "-x", ifile, "--lengths", "4,16", "--samples", "4", "--seed", "9"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    lines = first.strip().splitlines()
    assert lines[0].split("\t")[0] == "length"
    assert len(lines) == 3
    f1 = [l.split("\t") for l in lines[1:]]
    f2 = [l.split("\t") for l in second.strip().splitlines()[1:]]
    # occurrence columns are deterministic under a fixed seed
    assert [r[6] for r in f1] == [r[6] for r in f2]
    assert [r[7] for r in f1] == [r[7] for r in f2]


def test_bench_occurrences_match_oracle(corpus, capsys):
    text, _, ifile = corpus
    assert main(["bench", "-x", ifile, "--lengths", "12", "--samples", "6",
                 "--seed", "3", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    # re-sample the same patterns the bench drew and compare against the oracle
    rng = random.Random(3)
    occs = []
    for _ in range(6):
        start = rng.randrange(1, len(text) - 12 + 2)
        pat = text[start - 1 : start - 1 + 12]
        occs.append(len(naive_search(text, pat)))
    assert rows[0]["occ_mean"] == pytest.approx(sum(occs) / len(occs))


def test_bench_reports_candidates_and_waves(corpus, capsys):
    # cand_mean, waves_mean and lookups_mean follow the older columns and
    # come from locate's _stats on the patterns the bench draws
    _, _, ifile = corpus
    args = ["bench", "-x", ifile, "--lengths", "12,300", "--samples", "5", "--seed", "4"]
    assert main(args) == 0
    header = capsys.readouterr().out.splitlines()[0].split("\t")
    assert header[6:] == ["occ_mean", "occc_mean", "cand_mean", "waves_mean", "lookups_mean"]
    assert main(args + ["--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    idx = EspIndex.load(ifile)
    rng = random.Random(4)
    for row in rows:
        cands, waves, lookups = [], [], []
        for _ in range(5):
            start = rng.randrange(1, idx.u - row["length"] + 2)
            stats = {}
            idx.locate(idx.extract(start, row["length"]), _stats=stats)
            cands.append(stats["candidates"])
            waves.append(stats["waves"])
            lookups.append(stats["lookups"])
        assert row["cand_mean"] == pytest.approx(sum(cands) / 5)
        assert row["waves_mean"] == pytest.approx(sum(waves) / 5)
        assert row["lookups_mean"] == pytest.approx(sum(lookups) / 5)
    # a few candidates of 300-byte patterns in three near-copies: one wave each
    assert rows[1]["waves_mean"] == 1
    # a 300-byte pattern parses more levels, each with one or two batches
    assert rows[1]["lookups_mean"] > rows[0]["lookups_mean"] > 0
