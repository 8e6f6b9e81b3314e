import csv
import io
import json
import os
import signal
import subprocess
import sys

import pytest

import kif
from kif import codec, sexpr
from kif import model as m
from kif.cli import main
from kif.fixtures import dump_fixture
from kif.rdf.ntriples import serialize_ntriples
from kif.rdf.server import serve

import paper_fixtures as pf


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    graph = codec.encode_dataset(pf.wikidata_pairs(), pf.wikidata_descriptors())
    (root / "wd.nt").write_text(serialize_ntriples(graph), encoding="utf-8")
    (root / "wd.sexp").write_text(
        dump_fixture(pf.wikidata_pairs(), pf.wikidata_descriptors()),
        encoding="utf-8")
    (root / "pubchem.nt").write_text(
        serialize_ntriples(pf.pubchem_source_graph()), encoding="utf-8")
    (root / "pubchem.json").write_text(
        json.dumps(pf.pubchem_mapping().to_dict()), encoding="utf-8")
    return root


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_filter_solubility_from_rdf_store(data_dir, capsys):
    code, out, _ = run(capsys, "filter", "--store", f"rdf:{data_dir}/wd.nt",
                       "--subject", "wd:Q2270", "--property", "wd:P2177",
                       "--limit", "10")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1
    assert sexpr.parse(lines[0]) == pf.solubility_statement


def test_no_stores_is_a_usage_error(capsys):
    code, _, err = run(capsys, "filter", "--subject", "wd:Q2270")
    assert code == 2
    assert "--store" in err


def test_two_stores_answer_the_inchi_mass_query_in_child_order(data_dir, capsys):
    code, out, _ = run(
        capsys, "filter",
        "--store", f"mapper:{data_dir}/pubchem.json@rdf:{data_dir}/pubchem.nt",
        "--store", f"memory:{data_dir}/wd.sexp",
        "--subject-snak", f'(ValueSnak wd:P234 (String "{pf.BENZENE_INCHI}"))',
        "--property", "wd:P2067")
    assert code == 0
    parsed = [sexpr.parse(line) for line in out.strip().split("\n")]
    assert parsed == [pf.pubchem_mass_statement, pf.mass_statement]


def test_sexp_output_reparses_to_api_results(data_dir, capsys):
    code, out, _ = run(capsys, "filter", "--store", f"memory:{data_dir}/wd.sexp",
                       "--subject", "wd:Q7286")
    assert code == 0
    parsed = {sexpr.parse(line) for line in out.strip().split("\n")}
    assert parsed == set(pf.wikidata_store().filter(
        m.FilterPattern(m.EntityFp(pf.marie))))


def test_json_and_ntriples_formats(data_dir, capsys):
    code, out, _ = run(capsys, "filter", "--store", f"memory:{data_dir}/wd.sexp",
                       "--subject", "wd:Q2270", "--property", "wd:P2177",
                       "--format", "json", "--annotations")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["snak"]["value"]["amount"] == "0.07"
    assert rows[0]["annotations"][0]["rank"] == "normal"

    code, out, _ = run(capsys, "filter", "--store", f"memory:{data_dir}/wd.sexp",
                       "--subject", "wd:Q2270", "--property", "wd:P2177",
                       "--format", "ntriples", "--annotations")
    assert code == 0
    from kif.rdf.ntriples import parse_ntriples
    decoded = codec.decode(parse_ntriples(out))
    assert decoded.statements[0].statement == pf.solubility_statement
    assert decoded.statements[0].annotation == pf.solubility_annotation


def test_count_command(data_dir, capsys):
    code, out, _ = run(capsys, "count", "--store", f"memory:{data_dir}/wd.sexp",
                       "--subject", "wd:Q7286", "--property", "wd:P166")
    assert code == 0 and out.strip() == "2"


def test_annotations_command(data_dir, capsys):
    stmt_text = sexpr.dumps(pf.solubility_statement, compact=True)
    code, out, _ = run(capsys, "annotations", "--store",
                       f"memory:{data_dir}/wd.sexp", stmt_text)
    assert code == 0
    annotated = sexpr.parse(out.strip())
    assert annotated.statement == pf.solubility_statement
    assert annotated.annotations == (pf.solubility_annotation,)


def test_describe_prints_marie_curie_label(data_dir, capsys):
    code, out, _ = run(capsys, "describe", "--store",
                       f"memory:{data_dir}/wd.sexp", "wd:Q7286")
    assert code == 0
    assert '"Marie Curie"' in out
    desc = sexpr.parse(out.strip())
    assert desc.descriptor.label == m.TextValue("Marie Curie")


def test_decode_sparql_prints_the_filter_pattern(capsys):
    code, out, _ = run(capsys, "decode-sparql", "--query",
                       "SELECT ?v WHERE { wd:Q2270 wdt:P2177 ?v } LIMIT 10")
    assert code == 0
    pattern = sexpr.parse(out.strip())
    assert pattern.subject == m.EntityFp(pf.benzene)
    assert pattern.property == m.EntityFp(pf.solubility)


def test_decode_sparql_rejects_unsupported_with_exit_2(capsys):
    code, _, err = run(capsys, "decode-sparql", "--query",
                       "SELECT ?v WHERE { OPTIONAL { ?s ?p ?v } }")
    assert code == 2
    assert "OPTIONAL" in err


def test_sparql_command_answers_over_stores(data_dir, capsys):
    code, out, _ = run(capsys, "sparql", "--store", f"memory:{data_dir}/wd.sexp",
                       "--query", "SELECT ?v WHERE { wd:Q2270 wdt:P2177 ?v }")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["bindings"][0]["v"]["value"] == "0.07"


def test_served_endpoint_equals_rdf_backend(data_dir, capsys):
    graph = codec.encode_dataset(pf.wikidata_pairs(), pf.wikidata_descriptors())
    with serve(graph) as server:
        code, out_sparql, _ = run(capsys, "filter", "--store",
                                  f"sparql:{server.url}",
                                  "--subject", "wd:Q2270")
        assert code == 0
    code, out_rdf, _ = run(capsys, "filter", "--store", f"rdf:{data_dir}/wd.nt",
                           "--subject", "wd:Q2270")
    assert code == 0
    assert {sexpr.parse(l) for l in out_sparql.strip().split("\n")} == \
        {sexpr.parse(l) for l in out_rdf.strip().split("\n")}


def test_transport_error_exits_3(capsys):
    code, _, err = run(capsys, "filter", "--store", "sparql:http://127.0.0.1:1/x",
                       "--timeout", "0.5", "--subject", "wd:Q2270")
    assert code == 3
    assert "transport error" in err


def test_page_size_zero_is_a_usage_error(data_dir, capsys):
    code, _, err = run(capsys, "count", "--store", f"rdf:{data_dir}/wd.nt",
                       "--page-size", "0")
    assert code == 2
    assert "page_size must be at least 1" in err


def test_timeout_zero_is_a_usage_error(data_dir, capsys):
    code, _, err = run(capsys, "count", "--store", f"rdf:{data_dir}/wd.nt",
                       "--timeout", "0")
    assert code == 2
    assert "request_timeout must be positive" in err


@pytest.mark.parametrize("timeout", ["inf", "1e300"])
def test_a_timeout_a_socket_cannot_take_is_a_usage_error(capsys, timeout):
    code, _, err = run(capsys, "count", "--store", "sparql:http://127.0.0.1:9/sparql",
                       "--timeout", timeout)
    assert code == 2
    assert "request_timeout must be positive" in err


def test_load_reports_and_encodes_fixture(data_dir, tmp_path, capsys):
    out_nt = tmp_path / "out.nt"
    code, out, _ = run(capsys, "load", "--fixture", f"{data_dir}/wd.sexp",
                       "--encode-to", str(out_nt))
    assert code == 0
    assert "statement records" in out
    from kif.rdf.ntriples import parse_ntriples
    graph = parse_ntriples(out_nt.read_text(encoding="utf-8"))
    assert codec.decode(graph).statements


def test_gen_queries_emits_requested_count(data_dir, capsys):
    code, out, _ = run(capsys, "gen-queries", "--fixture",
                       f"{data_dir}/wd.sexp", "--count", "53")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 53


def test_bench_on_memory_store_has_overhead_fraction_one(data_dir, tmp_path,
                                                         capsys):
    queries = tmp_path / "queries.txt"
    queries.write_text(
        "--subject wd:Q2270 --property wd:P2177 --limit 10\n"
        "--subject wd:Q7286\n", encoding="utf-8")
    code, out, _ = run(capsys, "bench", "--store", f"memory:{data_dir}/wd.sexp",
                       "--queries", str(queries), "--runs", "5")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    for row in rows:
        assert row["overhead_fraction"] == "1.0000"
        assert float(row["api_ms"]) <= float(row["total_ms"]) + 1e-6


def test_bench_over_a_mixer_of_endpoints_subtracts_each_childs_requests(tmp_path, capsys):
    queries = tmp_path / "queries.txt"
    queries.write_text(
        "--subject wd:Q2270 --property wd:P2177 --limit 10\n"
        "--subject wd:Q7286\n"
        "--property wd:P166\n", encoding="utf-8")
    pairs = pf.wikidata_pairs()
    halves = [pairs[::2], pairs[1::2]]
    with serve(codec.encode_dataset(halves[0])) as first, \
            serve(codec.encode_dataset(halves[1])) as second:
        code, out, _ = run(capsys, "bench", "--store", f"sparql:{first.url}",
                           "--store", f"sparql:{second.url}",
                           "--queries", str(queries), "--runs", "5")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    for row in rows:
        assert float(row["api_ms"]) <= float(row["total_ms"])
        # Both children send requests, and their time is taken off.
        assert 0.0 < float(row["overhead_fraction"]) < 1.0, row


def test_bad_store_spec_and_parse_errors_exit_2(data_dir, capsys):
    code, _, err = run(capsys, "filter", "--store", "bogus")
    assert code == 2 and "store spec" in err
    code, _, err = run(capsys, "filter", "--store", f"memory:{data_dir}/wd.sexp",
                       "--subject", "(Item")
    assert code == 2 and "cannot parse" in err


def test_a_malformed_mapping_document_exits_2(data_dir, tmp_path, capsys):
    (tmp_path / "bad.json").write_text('{"entity_rules": [{}]}', encoding="utf-8")
    code, _, err = run(capsys, "count", "--store",
                       f"mapper:{tmp_path}/bad.json@rdf:{data_dir}/pubchem.nt")
    assert code == 2 and "entity_rules[0] has no 'source'" in err


def test_serve_stops_on_sigterm(data_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(kif.__file__)), env.get("PYTHONPATH", "")])
    proc = subprocess.Popen(
        [sys.executable, "-m", "kif.cli", "serve", "--graph", str(data_dir / "wd.nt"),
         "--port", "0"], stderr=subprocess.PIPE, text=True, env=env)
    try:
        assert "serving" in proc.stderr.readline()
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=5) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


@pytest.mark.parametrize("fmt", ["sexp", "json"])
def test_describe_reads_a_mapped_label(data_dir, capsys, fmt):
    code, out, _ = run(capsys, "describe", "--store",
                       f"mapper:{data_dir}/pubchem.json@rdf:{data_dir}/pubchem.nt",
                       "--format", fmt, "wd:Q_PUBCHEM_CID241")
    assert code == 0
    if fmt == "json":
        described = json.loads(out)
        assert described["entity"]["iri"] == pf.pubchem_benzene.iri.value
        assert described["descriptor"]["label"] == {"content": "Benzene", "language": "en"}
    else:
        desc = sexpr.parse(out.strip())
        assert desc.entity == pf.pubchem_benzene
        assert desc.descriptor.label == m.TextValue("Benzene", "en")


def test_load_graph_prints_its_counts_and_warns_of_malformed_nodes(data_dir, tmp_path,
                                                                     capsys):
    from kif import namespaces as ns
    from kif.rdf.ntriples import parse_ntriples
    decoded = codec.decode(parse_ntriples((data_dir / "wd.nt").read_text(encoding="utf-8")))
    code, out, err = run(capsys, "load", "--graph", f"{data_dir}/wd.nt")
    assert code == 0
    assert (f"statements: {len(decoded.statements)}, "
            f"descriptors: {len(decoded.descriptors)}") in out
    assert err == ""

    broken = tmp_path / "broken.nt"
    broken.write_text(f"<{ns.WD}Q1> <{ns.P}P1> <{ns.WDS}deadbeef> .\n", encoding="utf-8")
    code, out, err = run(capsys, "load", "--graph", str(broken))
    assert code == 0
    assert f"{broken}: 1 triples" in out
    assert "statements: 0, descriptors: 0" in out
    assert err == (f"warning: statement node {ns.WDS}deadbeef has a p:P1 link "
                   "but no ps:P1 value\n")


def test_load_truthy_writes_the_truthy_graph_of_the_fixture(data_dir, tmp_path, capsys):
    from kif.fixtures import load_fixture
    out_nt = tmp_path / "truthy.nt"
    code, out, _ = run(capsys, "load", "--fixture", f"{data_dir}/wd.sexp", "--truthy",
                       "--encode-to", str(out_nt))
    assert code == 0
    pairs, _ = load_fixture(f"{data_dir}/wd.sexp")
    graph = codec.truthy_graph(pairs)
    assert out_nt.read_text(encoding="utf-8") == serialize_ntriples(graph)
    assert f"wrote {len(graph)} triples to {out_nt}" in out


def test_snak_kind_names_read_and_written_by_the_cli(data_dir, capsys):
    from kif.cli import snak_to_plain
    code, _, err = run(capsys, "count", "--store", f"memory:{data_dir}/wd.sexp",
                       "--snak-kinds", "value, bogus")
    assert code == 2
    assert "unknown snak kind 'bogus'" in err
    counts = [run(capsys, "count", "--store", f"memory:{data_dir}/wd.sexp", *kinds)[1]
              for kinds in ((), ("--snak-kinds", " value,some-value , no-value"),
                            ("--snak-kinds", "some-value,no-value"))]
    assert counts[0] == counts[1] != counts[2] == "0\n"
    value = snak_to_plain(pf.nobel_statement.snak)
    assert list(value) == ["kind", "property", "value"] and value["kind"] == "value"
    for snak, kind in ((m.SomeValueSnak(pf.award), "some-value"),
                       (m.NoValueSnak(pf.award), "no-value")):
        assert snak_to_plain(snak) == {"kind": kind, "property": pf.award.iri.value}
        assert list(snak_to_plain(snak)) == ["kind", "property"]


@pytest.fixture
def opened(monkeypatch):
    """The HTTP handles and mixers the CLI makes, and the handles closed."""
    from kif.mixer import MixerStore
    from kif.stores import HttpBackend
    made = {"backends": [], "mixers": [], "closed": []}
    for cls, key in ((HttpBackend, "backends"), (MixerStore, "mixers")):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *a, init=init, key=key, **k:
                            made[key].append(self) or init(self, *a, **k))
    close = HttpBackend.close
    monkeypatch.setattr(HttpBackend, "close",
                        lambda self: made["closed"].append(self) or close(self))
    return made


def test_every_command_closes_the_stores_it_opens(tmp_path, capsys, opened):
    queries = tmp_path / "queries.txt"
    queries.write_text("--subject wd:Q2270\n", encoding="utf-8")
    with serve(codec.encode_dataset(pf.wikidata_pairs(), pf.wikidata_descriptors())) as server:
        stores = ["--store", f"sparql:{server.url}", "--store", f"sparql:{server.url}"]
        for argv in (["filter", "--subject", "wd:Q2270", "--annotations"],
                     ["count", "--subject", "wd:Q2270"],
                     ["annotations", sexpr.dumps(pf.mass_statement, compact=True)],
                     ["describe", "wd:Q7286"],
                     ["sparql", "--query", "SELECT ?v WHERE { wd:Q2270 wdt:P2067 ?v }"],
                     ["bench", "--queries", str(queries), "--runs", "1"]):
            for parallel in ([], ["--parallel"]):
                del opened["backends"][:], opened["mixers"][:], opened["closed"][:]
                code, out, err = run(capsys, *argv, *stores, *parallel)
                assert code == 0 and out, (argv, err)
                backends = opened["backends"]
                assert len(backends) == 2 and opened["closed"] == backends[::-1], argv
                assert all(not backend._open for backend in backends), argv
                (mixer,) = opened["mixers"]
                assert mixer._pool is None or mixer._pool._shutdown, argv
        # A spec that fails closes the stores opened before it.
        del opened["backends"][:], opened["closed"][:]
        code, _, err = run(capsys, "count", *stores, "--store", "bogus:x")
        assert code == 2 and "unknown store kind" in err
        assert len(opened["backends"]) == 2 and opened["closed"] == opened["backends"][::-1]
