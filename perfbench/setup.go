package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"encshare"
	"encshare/internal/dtd"
	"encshare/internal/server"
	"encshare/internal/xmark"
	"encshare/internal/xmldoc"
	"encshare/internal/xpath"
)

// The four canonical operations of the headline measurement.
const (
	pointQuery = "/site/regions/europe/item" // strict point lookup
	scanQuery  = "//bidder/date"             // containment scan
	sumQuery   = "/site/regions//item"       // verified SUM
	// appendName is the tag of the leaf every append adds as the last
	// child of the root. It is none of the query names, so appends never
	// change a read's expected answer (inputs checks this on the
	// plaintext).
	appendName = "category"
	rootPre    = 1

	// docSeed fixes the XMark document of each scale. The generator
	// draws entity counts from its seed (bidders per open auction among
	// them), and at scale 0.1 the scan's answer ranges from 69 to 98
	// matches across seeds: a spread in the scan's own work wider than
	// the changes the benchmark should resolve. The benchmark seed
	// varies the key material, and with it every share the program
	// stores, and the order of the operations.
	docSeed = 42
)

// inputs is what one run generates: the XML the program receives, the
// keys it encrypts with, and the plaintext oracle's answers the
// correctness gate compares against.
type inputs struct {
	xml      []byte // released once set-up is done
	xmlBytes int64
	keys     *encshare.Keys
	nodes    int64 // element nodes in the document

	point, scan, sum []int64 // expected pres, in document order
}

// makeInputs generates the XMark document of the scale, the oracle
// answers of the three reads (strict matching for the point query and
// the SUM's filter, containment for the scan) and the keys of the seed.
func makeInputs(scale float64, seed int64) (*inputs, error) {
	var buf bytes.Buffer
	if _, err := xmark.WriteXML(&buf, xmark.Config{Scale: scale, Seed: docSeed}); err != nil {
		return nil, fmt.Errorf("generating XMark document: %w", err)
	}
	// The oracle reads the serialized XML, exactly what the program gets.
	doc, err := xmldoc.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("parsing generated XML: %w", err)
	}
	in := &inputs{xml: buf.Bytes(), nodes: doc.Count}
	in.point, in.scan, in.sum = oracleAnswers(doc)

	// Appending the benchmark's leaf must leave every read's answer as it
	// is and land at pre = nodes+1; check it once on the plaintext.
	doc.Root.Children = append(doc.Root.Children, &xmldoc.Node{Name: appendName})
	doc.Rebuild()
	p, s, a := oracleAnswers(doc)
	last := doc.Root.Children[len(doc.Root.Children)-1]
	if !slices.Equal(p, in.point) || !slices.Equal(s, in.scan) || !slices.Equal(a, in.sum) || last.Pre != in.nodes+1 {
		return nil, fmt.Errorf("appending <%s/> to the root changes a read's answer", appendName)
	}

	in.keys, err = makeKeys(seed)
	if err != nil {
		return nil, err
	}
	return in, nil
}

func oracleAnswers(doc *xmldoc.Doc) (point, scan, sum []int64) {
	o := xpath.NewOracle(doc)
	eval := func(q string, mode xpath.MatchMode) []int64 {
		return xpath.Pres(o.Eval(xpath.MustParse(q), mode))
	}
	return eval(pointQuery, xpath.MatchEqual), eval(scanQuery, xpath.MatchContain), eval(sumQuery, xpath.MatchEqual)
}

// makeKeys derives the client's key material from the seed: the tag map
// over the XMark DTD (deterministic) and a PRG seed hashed from the
// benchmark seed, so equal seeds encrypt to equal shares.
func makeKeys(seed int64) (*encshare.Keys, error) {
	return keysWithSecret(fmt.Sprintf("perfbench-key-%d", seed))
}

func keysWithSecret(secret string) (*encshare.Keys, error) {
	params := encshare.Params{P: 83}
	gen, err := encshare.GenerateKeys(params, dtd.MustXMark().Names())
	if err != nil {
		return nil, fmt.Errorf("generating tag map: %w", err)
	}
	var m bytes.Buffer
	if err := gen.SaveMap(&m); err != nil {
		return nil, err
	}
	s := sha256.Sum256([]byte(secret))
	return encshare.LoadKeys(params, s[:], &m)
}

// system is one set-up instance of the program under test: a client
// session and, for remote workloads, the server runtime behind it.
type system struct {
	sess  *encshare.Session
	rt    *server.Runtime    // nil for local workloads
	db    *encshare.Database // the in-process table of local workloads
	nodes int64              // node count the next append must grow
	// appended is the pre of the leaf the last append added, until undo
	// deletes it (0: none).
	appended int64
	dump     int64 // encoded dump size in bytes
	dir      string

	l      net.Listener
	served chan struct{} // closed when Serve returns
}

// dbSeq names each encoded table uniquely within the process.
var dbSeq atomic.Int64

// setUp builds the program's state from the XML and returns it with the
// CPU time set-up took. Remote: encode, dump to a file, attach the file to a
// server.Runtime with a WAL the way encshare-server does, serve it on
// loopback TCP and dial it. Local: encode and open an in-process
// session. The table is encoded with in.keys and the session opened
// with sessionKeys, which differ only in the test of the correctness
// gate. XML generation is not part of set-up.
func setUp(remote bool, in *inputs, sessionKeys *encshare.Keys, dir string) (*system, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	sys := &system{dir: dir, nodes: in.nodes}
	start := processCPU()
	db, err := encshare.CreateDatabase(fmt.Sprintf("perfbench-%d", dbSeq.Add(1)))
	if err != nil {
		return nil, 0, err
	}
	if _, err := db.EncodeXML(in.keys, bytes.NewReader(in.xml)); err != nil {
		db.Close()
		return nil, 0, fmt.Errorf("encoding: %w", err)
	}
	if !remote {
		sys.db = db
		sys.sess = encshare.OpenLocal(sessionKeys, db)
		took := processCPU() - start
		var cw countWriter
		if err := db.DumpTo(&cw); err != nil {
			sys.close()
			return nil, 0, err
		}
		sys.dump = cw.n
		return sys, took, nil
	}

	path := filepath.Join(dir, "doc.db")
	err = writeDump(db, path)
	db.Close()
	if err != nil {
		return nil, 0, err
	}
	sys.rt = server.New(server.Config{})
	// Tenant defaults match encshare-server's: 4,096 decoded-polynomial
	// cache entries, a 1,024-page pool, one batch worker per CPU.
	err = sys.rt.AttachFile(server.Tenant{Path: path, P: 83, E: 1, CacheEntries: 4096, WALDir: filepath.Join(dir, "wal")})
	if err != nil {
		return nil, 0, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sys.rt.Shutdown()
		return nil, 0, err
	}
	sys.l, sys.served = l, make(chan struct{})
	go func() {
		defer close(sys.served)
		_ = sys.rt.Serve(l) // returns nil after Shutdown; a listener error surfaces as a failed dial
	}()
	sys.sess, err = encshare.Dial(sessionKeys, l.Addr().String())
	if err != nil {
		sys.close()
		return nil, 0, fmt.Errorf("dialing the benchmark server: %w", err)
	}
	took := processCPU() - start
	fi, err := os.Stat(path)
	if err != nil {
		sys.close()
		return nil, 0, err
	}
	sys.dump = fi.Size()
	return sys, took, nil
}

func writeDump(db *encshare.Database, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := db.DumpTo(w); err != nil {
		f.Close()
		return fmt.Errorf("dumping: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// nodeCount reads the served table's node count.
func (s *system) nodeCount() (int64, error) {
	if s.rt == nil {
		return s.db.NodeCount()
	}
	counts, err := s.rt.NodeCounts()
	if err != nil {
		return 0, err
	}
	return counts[""], nil
}

// close stops the server, waits for its accept loop to end and removes
// the instance's files.
func (s *system) close() {
	if s.sess != nil {
		s.sess.Close()
	}
	if s.rt != nil {
		s.rt.Shutdown()
	}
	if s.l != nil {
		s.l.Close() // ends Serve even if Shutdown ran before Serve saw the listener
		<-s.served
	}
	if s.db != nil {
		s.db.Close()
	}
	os.RemoveAll(s.dir)
}

type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
