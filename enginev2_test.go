package encshare

// Storage-engine checks at the whole-pipeline level: the paged engine
// must hold exactly the rows the encoder emits, answer the query grid
// like the plaintext oracle over the wire, reach the gold-oracle state
// after mutations, and keep replica dumps byte-identical. The store
// package pins these properties at the row level; this layer pins them
// through encode → serve → query → mutate.

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"testing"

	"encshare/internal/encoder"
	"encshare/internal/store"
	"encshare/internal/xmldoc"
	"encshare/internal/xpath"
)

// rowModel is the reference table: the encoder's row stream kept as
// emitted, with blobs copied.
type rowModel []store.NodeRow

func (m *rowModel) InsertNode(r store.NodeRow) error {
	r.Poly = append([]byte(nil), r.Poly...)
	*m = append(*m, r)
	return nil
}

// TestEngineParityFullPipeline runs the full query grid over a random
// document encoded and served over TCP: every engine × test combination
// must agree with the plaintext oracle, and the stored table must hold
// exactly the rows the encoder emits for the same keys.
func TestEngineParityFullPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(427))
	xml := randomDocXML(rng, 160)
	doc, err := xmldoc.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := GenerateKeys(Params{P: 83}, doc.Names())
	if err != nil {
		t.Fatal(err)
	}
	oracle := xpath.NewOracle(doc)
	queries := []string{
		"/site", "//item", "//person//city", "/site/*/person",
		"/site//europe/item", "//*", "/site/regions/../people",
	}

	db := encodeFresh(t, keys, xml)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go db.Serve(l, keys.Params())
	defer l.Close()
	session, err := Dial(keys, l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()

	for _, qs := range queries {
		q := xpath.MustParse(qs)
		for _, opt := range []QueryOptions{
			{Engine: Simple, Test: TestExact},
			{Engine: Advanced, Test: TestContainment},
		} {
			mode := xpath.MatchEqual
			if opt.Test == TestContainment {
				mode = xpath.MatchContain
			}
			want := xpath.Pres(oracle.Eval(q, mode))
			got, err := session.QueryWith(qs, opt)
			if err != nil {
				t.Fatalf("%s %+v: %v", qs, opt, err)
			}
			if fmt.Sprint(got.Pres) != fmt.Sprint(want) {
				t.Fatalf("%s %+v: result %v != oracle %v", qs, opt, got.Pres, want)
			}
		}
	}

	// Same document, same keys: the table must hold the encoder's rows.
	var model rowModel
	if _, err := encoder.EncodeStream(strings.NewReader(xml), encoder.Options{
		Map: keys.m, Scheme: keys.scheme(), TrieMode: keys.params.TrieMode,
	}, &model); err != nil {
		t.Fatal(err)
	}
	sort.Slice(model, func(i, j int) bool { return model[i].Pre < model[j].Pre })
	lo, hi, err := db.st.MinMaxPre()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db.st.Range(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(model) {
		t.Fatalf("table holds %d rows, the encoder emitted %d", len(rows), len(model))
	}
	for i, want := range model {
		got := rows[i]
		if got.Pre != want.Pre || got.Post != want.Post || got.Parent != want.Parent || !bytes.Equal(got.Poly, want.Poly) {
			t.Fatalf("row %d: table %+v, encoder %+v", i, got, want)
		}
	}
}

// TestEngineParityMutationPipeline drives a mutation sequence through a
// local session and requires the end state to match the gold oracle (a
// fresh encode of the equivalent document).
func TestEngineParityMutationPipeline(t *testing.T) {
	keys, err := GenerateKeys(Params{P: 83}, testNames(t))
	if err != nil {
		t.Fatal(err)
	}
	endXML := `<site><regions><europe><item><name>lamp</name></item><city/></europe></regions><people><person><address><city>Enschede</city></address></person></people></site>`

	db := encodeFresh(t, keys, testXML)
	s := OpenLocal(keys, db)
	defer s.Close()
	if _, err := s.Insert(3, "item"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := s.Update(6, "city"); err != nil {
		t.Fatalf("update: %v", err)
	}
	if err := s.Delete(9); err != nil {
		t.Fatalf("delete: %v", err)
	}
	assertSameTable(t, "end state vs oracle", db, encodeFresh(t, keys, endXML))
}

// TestEngineV2ReplicaDumpIdentity: two replicas hydrated from one dump
// and driven through the same mutation sequence via the full pipeline
// must produce byte-identical dump files — the property that lets
// replicated shards skip a consistency protocol.
func TestEngineV2ReplicaDumpIdentity(t *testing.T) {
	keys, err := GenerateKeys(Params{P: 83}, testNames(t))
	if err != nil {
		t.Fatal(err)
	}
	seedDB := encodeFresh(t, keys, testXML)
	var img bytes.Buffer
	if err := seedDB.DumpTo(&img); err != nil {
		t.Fatal(err)
	}

	mutate := func(which string) []byte {
		db, err := CreateDatabase(which)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		if err := db.LoadFrom(bytes.NewReader(img.Bytes())); err != nil {
			t.Fatal(err)
		}
		s := OpenLocal(keys, db)
		defer s.Close()
		if _, err := s.Insert(3, "item"); err != nil {
			t.Fatalf("%s: insert: %v", which, err)
		}
		if err := s.Update(6, "city"); err != nil {
			t.Fatalf("%s: update: %v", which, err)
		}
		if err := s.Delete(9); err != nil {
			t.Fatalf("%s: delete: %v", which, err)
		}
		var out bytes.Buffer
		if err := db.DumpTo(&out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}

	a := mutate("replica a")
	b := mutate("replica b")
	if !bytes.Equal(a, b) {
		t.Fatalf("replica dumps differ after identical mutations: %d vs %d bytes", len(a), len(b))
	}
}
