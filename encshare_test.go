package encshare

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"

	"encshare/internal/filter"
	"encshare/internal/rmi"
	"encshare/internal/xmldoc"
)

const testXML = `<site><regions><europe><item><name>lamp</name></item></europe></regions><people><person><name>Joan Johnson</name><address><city>Enschede</city></address></person></people></site>`

func testNames(t *testing.T) []string {
	t.Helper()
	d, err := xmldoc.ParseString(testXML)
	if err != nil {
		t.Fatal(err)
	}
	return d.Names()
}

func TestEndToEndLocal(t *testing.T) {
	keys, err := GenerateKeys(Params{P: 83}, testNames(t))
	if err != nil {
		t.Fatal(err)
	}
	db, err := CreateDatabase(t.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	stats, err := db.EncodeXML(keys, strings.NewReader(testXML))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Nodes != 10 {
		t.Fatalf("encoded %d nodes", stats.Nodes)
	}
	n, err := db.NodeCount()
	if err != nil || n != 10 {
		t.Fatalf("NodeCount = %d, %v", n, err)
	}

	session := OpenLocal(keys, db)
	defer session.Close()
	for q, want := range map[string]int{
		"/site":                1,
		"//item":               1,
		"/site//city":          1,
		"/site/*/person":       1,
		"//zzz-not-there":      0,
		"/site/regions/europe": 1,
	} {
		res, err := session.Query(q)
		if err != nil {
			t.Fatalf("Query(%s): %v", q, err)
		}
		if len(res.Pres) != want {
			t.Errorf("Query(%s) = %v, want %d nodes", q, res.Pres, want)
		}
	}
	// Options: both engines, both tests. Exact returns just the city
	// node; containment over-approximates with its ancestors (site,
	// people, person, address) — the Fig. 7 accuracy trade-off.
	for _, opt := range []QueryOptions{
		{Engine: Simple}, {Engine: Advanced},
		{Engine: Simple, Test: TestContainment}, {Engine: Advanced, Test: TestContainment},
	} {
		res, err := session.QueryWith("//city", opt)
		if err != nil {
			t.Fatal(err)
		}
		want := 1
		if opt.Test == TestContainment {
			want = 5
		}
		if len(res.Pres) != want {
			t.Errorf("%+v: //city = %v, want %d nodes", opt, res.Pres, want)
		}
		if res.Stats.Evaluations+res.Stats.Reconstructions == 0 {
			t.Errorf("%+v: no work counted", opt)
		}
	}
}

func TestEndToEndRemote(t *testing.T) {
	keys, err := GenerateKeys(Params{P: 83}, testNames(t))
	if err != nil {
		t.Fatal(err)
	}
	db, err := CreateDatabase(t.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.EncodeXML(keys, strings.NewReader(testXML)); err != nil {
		t.Fatal(err)
	}

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
	res, err := session.Query("/site//city")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pres) != 1 {
		t.Fatalf("remote //city = %v", res.Pres)
	}

	// The same query under both wire protocols: identical answers, and
	// the batched default costs strictly fewer server exchanges.
	for _, opt := range []QueryOptions{{Engine: Simple}, {Engine: Advanced}} {
		batchedOpt, percallOpt := opt, opt
		percallOpt.Batch = PerCall
		before := session.RoundTrips()
		br, err := session.QueryWith("/site//city", batchedOpt)
		if err != nil {
			t.Fatal(err)
		}
		batched := session.RoundTrips() - before
		before = session.RoundTrips()
		pr, err := session.QueryWith("/site//city", percallOpt)
		if err != nil {
			t.Fatal(err)
		}
		percall := session.RoundTrips() - before
		if len(br.Pres) != 1 || len(pr.Pres) != 1 {
			t.Fatalf("%+v: batched %v, per-call %v", opt, br.Pres, pr.Pres)
		}
		if batched >= percall {
			t.Errorf("%+v: batched cost %d round-trips, per-call %d", opt, batched, percall)
		}
	}
}

// serveAPI serves api over TCP and returns the address. gate, when
// non-nil, is installed on the rmi server.
func serveAPI(t *testing.T, api filter.ServerAPI, gate rmi.GateFunc) string {
	t.Helper()
	srv := rmi.NewServer()
	filter.RegisterServer(srv, api)
	srv.SetGate(gate)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close(); srv.Shutdown() })
	go srv.Serve(l)
	return l.Addr().String()
}

// TestReadOnlyServer: a server that serves a plain filter registers no
// write methods. Sessions against it query normally and every write
// fails with ErrReadOnly, on a single server and on a cluster.
func TestReadOnlyServer(t *testing.T) {
	keys, err := GenerateKeys(Params{P: 83}, testNames(t))
	if err != nil {
		t.Fatal(err)
	}
	sf := filter.NewServerFilter(encodeFresh(t, keys, testXML).st, keys.ring, 0)
	addr := serveAPI(t, sf, nil)
	single, err := Dial(keys, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	clus, err := DialCluster(keys, []string{addr, serveAPI(t, sf, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer clus.Close()
	for name, s := range map[string]*Session{"single": single, "cluster": clus} {
		if res, err := s.Query("/site//city"); err != nil || len(res.Pres) != 1 {
			t.Fatalf("%s: query on a read-only server: %v, %v", name, res.Pres, err)
		}
		if _, err := s.Insert(1, "regions"); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("%s: Insert = %v, want ErrReadOnly", name, err)
		}
		if err := s.Update(2, "regions"); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("%s: Update = %v, want ErrReadOnly", name, err)
		}
	}
}

// TestDialRefusesOtherFrameVersion: a server built with another frame
// version refuses the first frame a session sends, and Dial surfaces
// that as a *rmi.VersionError instead of a session that fails later.
// The server here answers every frame with the refusal a server of the
// next frame version sends.
func TestDialRefusesOtherFrameVersion(t *testing.T) {
	keys, err := GenerateKeys(Params{P: 83}, testNames(t))
	if err != nil {
		t.Fatal(err)
	}
	sf := filter.NewServerFilter(encodeFresh(t, keys, testXML).st, keys.ring, 0)
	addr := serveAPI(t, filter.NewMutable(sf, 0, nil, nil), func(string, string, uint64) (func(), error) {
		return nil, fmt.Errorf("frame version refused, server speaks version %d", rmi.FrameVersion+1)
	})
	s, err := Dial(keys, addr)
	var ve *rmi.VersionError
	if !errors.As(err, &ve) || ve.Server != rmi.FrameVersion+1 {
		t.Fatalf("Dial = %v, %v; want a VersionError", s, err)
	}
}

// TestEndToEndCluster exercises the whole sharded deployment through
// the public API: ShardPlan/DumpShard cut the table into three loadable
// shard files, three servers serve them over TCP, and DialCluster runs
// the same queries with identical results, counters, and per-shard
// round-trip accounting.
func TestEndToEndCluster(t *testing.T) {
	xml := randomDocXML(rand.New(rand.NewSource(21)), 400)
	doc, _ := xmldoc.ParseString(xml)
	keys, err := GenerateKeys(Params{P: 83}, doc.Names())
	if err != nil {
		t.Fatal(err)
	}
	db, err := CreateDatabase(t.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.EncodeXML(keys, strings.NewReader(xml)); err != nil {
		t.Fatal(err)
	}

	plan, err := db.ShardPlan(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 3 {
		t.Fatalf("ShardPlan(3) = %d ranges", len(plan))
	}
	var addrs []string
	for _, r := range plan {
		var dump bytes.Buffer
		if err := db.DumpShard(&dump, r); err != nil {
			t.Fatal(err)
		}
		shardDB, err := CreateDatabase(t.Name())
		if err != nil {
			t.Fatal(err)
		}
		defer shardDB.Close()
		if err := shardDB.LoadFrom(&dump); err != nil {
			t.Fatal(err)
		}
		want := r.Hi - r.Lo + 1
		if n, err := shardDB.NodeCount(); err != nil || n != want {
			t.Fatalf("shard [%d, %d] holds %d nodes (%v), want %d", r.Lo, r.Hi, n, err, want)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go shardDB.Serve(l, keys.Params())
		addrs = append(addrs, l.Addr().String())
	}

	session, err := DialCluster(keys, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()
	if session.Shards() != 3 {
		t.Fatalf("Shards() = %d", session.Shards())
	}
	local := OpenLocal(keys, db)
	for _, qs := range []string{"/site", "//item", "//person//city", "//bidder/date", "/site/*/person"} {
		for _, opt := range []QueryOptions{
			{}, {Engine: Simple}, {Test: TestContainment}, {Batch: PerCall},
		} {
			want, err := local.QueryWith(qs, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := session.QueryWith(qs, opt)
			if err != nil {
				t.Fatalf("%s %+v over cluster: %v", qs, opt, err)
			}
			if len(got.Pres) != len(want.Pres) {
				t.Fatalf("%s %+v: cluster %v != local %v", qs, opt, got.Pres, want.Pres)
			}
			for i := range want.Pres {
				if got.Pres[i] != want.Pres[i] {
					t.Fatalf("%s %+v: cluster %v != local %v", qs, opt, got.Pres, want.Pres)
				}
			}
			if got.Stats.Evaluations != want.Stats.Evaluations ||
				got.Stats.Reconstructions != want.Stats.Reconstructions {
				t.Fatalf("%s %+v: cluster work %+v != local %+v", qs, opt, got.Stats, want.Stats)
			}
		}
	}
	per := session.ShardRoundTrips()
	if len(per) != 3 {
		t.Fatalf("ShardRoundTrips = %v", per)
	}
	var sum int64
	for _, n := range per {
		sum += n
	}
	if sum == 0 || sum != session.RoundTrips() {
		t.Fatalf("per-shard counters %v do not aggregate to %d", per, session.RoundTrips())
	}

	// A dead shard address fails the dial with an error naming it.
	if _, err := DialCluster(keys, []string{addrs[0], "127.0.0.1:1"}); err == nil ||
		!strings.Contains(err.Error(), "shard 1 (127.0.0.1:1)") {
		t.Fatalf("dead shard dial gave %v, want a shard-identifying error", err)
	}
}

func TestKeyRoundTrip(t *testing.T) {
	names := testNames(t)
	keys, err := GenerateKeys(Params{P: 83}, names)
	if err != nil {
		t.Fatal(err)
	}
	var mapFile bytes.Buffer
	if err := keys.SaveMap(&mapFile); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadKeys(Params{P: 83}, keys.Seed(), &mapFile)
	if err != nil {
		t.Fatal(err)
	}

	// A database encoded with the original keys must answer queries under
	// the restored keys.
	db, err := CreateDatabase(t.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.EncodeXML(keys, strings.NewReader(testXML)); err != nil {
		t.Fatal(err)
	}
	session := OpenLocal(restored, db)
	res, err := session.Query("//person")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pres) != 1 {
		t.Fatalf("restored keys: //person = %v", res.Pres)
	}
}

func TestWrongKeysGarbleQueries(t *testing.T) {
	names := testNames(t)
	right, err := GenerateKeys(Params{P: 83}, names)
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := GenerateKeys(Params{P: 83}, names)
	if err != nil {
		t.Fatal(err)
	}
	db, err := CreateDatabase(t.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.EncodeXML(right, strings.NewReader(testXML)); err != nil {
		t.Fatal(err)
	}
	session := OpenLocal(wrong, db)
	res, err := session.Query("/site")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pres) != 0 {
		t.Fatalf("wrong seed still matched: %v", res.Pres)
	}
}

func TestTrieContentSearchPublicAPI(t *testing.T) {
	d, err := xmldoc.ParseString(testXML)
	if err != nil {
		t.Fatal(err)
	}
	var corpus strings.Builder
	d.Walk(func(n *xmldoc.Node) bool {
		corpus.WriteString(n.Text + " ")
		return true
	})
	names := ContentNames(d.Names(), corpus.String())
	keys, err := GenerateKeys(Params{P: 83, TrieMode: TrieCompressed}, names)
	if err != nil {
		t.Fatal(err)
	}
	db, err := CreateDatabase(t.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.EncodeXML(keys, strings.NewReader(testXML)); err != nil {
		t.Fatal(err)
	}
	session := OpenLocal(keys, db)
	res, err := session.QueryWith(`/site//person[contains(text(),"Joan")]`, QueryOptions{Test: TestExact})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pres) != 1 {
		t.Fatalf("content search = %v", res.Pres)
	}
	res, err = session.QueryWith(`/site//person[contains(text(),"Zelda")]`, QueryOptions{Test: TestExact})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pres) != 0 {
		t.Fatalf("absent word matched: %v", res.Pres)
	}
}

func TestDumpLoadAcrossDatabases(t *testing.T) {
	keys, err := GenerateKeys(Params{P: 83}, testNames(t))
	if err != nil {
		t.Fatal(err)
	}
	db1, err := CreateDatabase(t.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer db1.Close()
	if _, err := db1.EncodeXML(keys, strings.NewReader(testXML)); err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	if err := db1.DumpTo(&dump); err != nil {
		t.Fatal(err)
	}

	db2, err := CreateDatabase(t.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.LoadFrom(&dump); err != nil {
		t.Fatal(err)
	}
	session := OpenLocal(keys, db2)
	res, err := session.Query("//item")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pres) != 1 {
		t.Fatalf("after dump/load: //item = %v", res.Pres)
	}

	// A stream that is not a dump is refused and the loaded contents
	// stay readable.
	var de *DumpError
	if err := db2.LoadFrom(strings.NewReader("not a dump")); !errors.As(err, &de) {
		t.Fatalf("LoadFrom(garbage) = %v, want a *DumpError", err)
	}
	if res, err := session.Query("//item"); err != nil || len(res.Pres) != 1 {
		t.Fatalf("after a refused load: //item = %v, %v", res, err)
	}
}

func TestBadParams(t *testing.T) {
	if _, err := GenerateKeys(Params{P: 6}, []string{"a"}); err == nil {
		t.Fatal("composite P accepted")
	}
	if _, err := LoadKeys(Params{P: 83}, nil, strings.NewReader("a = 1")); err == nil {
		t.Fatal("empty seed accepted")
	}
	if _, err := GenerateKeys(Params{P: 3}, []string{"a", "b", "c"}); err == nil {
		t.Fatal("map overflow accepted")
	}
}

func TestBadQuerySyntax(t *testing.T) {
	keys, err := GenerateKeys(Params{P: 83}, testNames(t))
	if err != nil {
		t.Fatal(err)
	}
	db, err := CreateDatabase(t.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.EncodeXML(keys, strings.NewReader(testXML)); err != nil {
		t.Fatal(err)
	}
	session := OpenLocal(keys, db)
	if _, err := session.Query("not-a-query"); err == nil {
		t.Fatal("bad query accepted")
	}
}
