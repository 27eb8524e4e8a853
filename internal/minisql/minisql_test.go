package minisql

import "testing"

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC pre FROM nodes",
		"SELECT FROM nodes",
		"CREATE TABLE t (x FANCYTYPE)",
		"INSERT INTO t VALUES",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE x ~ 3",
		"SELECT * FROM t LIMIT x",
		"SELECT * FROM t; SELECT * FROM t",
		"SELECT MAX(*) FROM t",
		"CREATE TABLE t (x INT) garbage",
	}
	for _, q := range bad {
		if _, _, err := parse(q); err == nil {
			t.Errorf("statement %q accepted", q)
		}
	}
}
