package experiment

import (
	"fmt"

	"encshare/internal/engine"
	"encshare/internal/filter"
	"encshare/internal/rmi"
	"encshare/internal/xpath"
)

// AggregateBytes measures what server-side aggregation does to the wire:
// for each query, the matching rows are folded once through the
// aggregate frames (one request frame, one folded blob per ≤(q−1)-row
// chunk, plus the verification share) and once by per-row
// reconstruction (filter.Client.FoldFromRows: every row's share blob
// shipped and reconstructed — the measured baseline). Both
// paths run over real rmi connections and both totals count request AND
// reply bytes. The reduction column is the paper-style headline: bytes
// drop from O(rows) to O(chunks) while the client still verifies the
// fold against the query's known root.
func AggregateBytes(env *Env) (*Table, error) {
	queries := []string{"//item", "//person", "//open_auction", "/site/regions//item", "//bidder"}

	srv := rmi.NewServer()
	filter.RegisterServer(srv, filter.NewServerFilter(env.Store, env.Ring, 4096))
	foldConn := rmi.Pipe(srv)
	defer foldConn.Close()
	foldCli := filter.NewClient(filter.NewRemote(foldConn), env.Scheme)

	reconConn := rmi.Pipe(srv)
	defer reconConn.Close()
	reconCli := filter.NewClient(filter.NewRemote(reconConn), env.Scheme)

	table := &Table{
		Title:  "Aggregation: bytes on the wire, server-side fold vs per-row reconstruction (SUM)",
		Header: []string{"query", "rows", "fold bytes", "reconstruct bytes", "reduction", "verified"},
	}
	for _, qs := range queries {
		q, err := xpath.Parse(qs)
		if err != nil {
			return nil, err
		}
		res, err := env.Advanced.Run(q, engine.Equality)
		if err != nil {
			return nil, err
		}
		opts := filter.AggregateOptions{}
		if last := q.Steps[len(q.Steps)-1]; last.IsNameTest() {
			if v, err := env.Map.Value(last.Name); err == nil {
				opts.CheckPoint = v
			}
		}

		before := foldConn.Stats()
		folded, err := foldCli.AggregateFold(res.Pres, filter.AggSum, opts)
		if err != nil {
			return nil, err
		}
		fs := foldConn.Stats()
		foldBytes := (fs.BytesIn - before.BytesIn) + (fs.BytesOut - before.BytesOut)

		before = reconConn.Stats()
		recon, err := reconCli.FoldFromRows(res.Pres, filter.AggSum)
		if err != nil {
			return nil, err
		}
		ls := reconConn.Stats()
		reconBytes := (ls.BytesIn - before.BytesIn) + (ls.BytesOut - before.BytesOut)

		if !env.Ring.Equal(folded.Sum, recon.Sum) {
			return nil, fmt.Errorf("aggregate experiment: fold and reconstruction disagree on %s", qs)
		}
		ratio := "-"
		if foldBytes > 0 {
			ratio = fmt.Sprintf("%.1fx", float64(reconBytes)/float64(foldBytes))
		}
		table.Rows = append(table.Rows, []string{
			qs,
			fmt.Sprintf("%d", folded.Count),
			fmt.Sprintf("%d", foldBytes),
			fmt.Sprintf("%d", reconBytes),
			ratio,
			fmt.Sprintf("%v", folded.Verified),
		})
	}
	table.Notes = append(table.Notes,
		"fold: one delta-varint row list out, one folded share blob per ≤(q−1)-row chunk back, plus the masked verification fold",
		"reconstruct: per-row reconstruction — every matching row's share blob shipped to the client",
		fmt.Sprintf("p = %d: one share blob is %d bytes", env.Ring.Field().Q(), env.Ring.PolyBytes()),
	)
	return table, nil
}
