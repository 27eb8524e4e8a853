package minisql

import "testing"

// FuzzParseSQL guards the SQL front end against panics on arbitrary
// statement text.
func FuzzParseSQL(f *testing.F) {
	seeds := []string{
		"SELECT * FROM nodes WHERE pre = ?",
		"SELECT pre, post FROM nodes WHERE pre > 1 AND post < 2 ORDER BY pre DESC LIMIT 3 OFFSET 1",
		"SELECT MIN(pre) FROM nodes WHERE pre > ? AND post > ?",
		"CREATE TABLE t (a BIGINT PRIMARY KEY, b BLOB, c VARCHAR(10) NOT NULL)",
		"CREATE UNIQUE INDEX i ON t (a) USING BTREE",
		"INSERT INTO t (a, b) VALUES (1, ?), (2, NULL)",
		"UPDATE t SET a = 1, b = 'x''y' WHERE c IS NOT NULL",
		"DELETE FROM t WHERE a BETWEEN -5 AND 5",
		"DROP TABLE t",
		"SELECT COUNT(*), SUM(a) FROM t -- trailing comment",
		"SELECT 'unterminated",
		"INSERT INTO",
		"SELECT * FROM t WHERE a <=> 3",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, nparams, err := parse(src)
		if err != nil {
			return
		}
		if s == nil {
			t.Fatalf("parse(%q) returned nil statement without error", src)
		}
		if nparams < 0 {
			t.Fatalf("parse(%q) returned negative param count", src)
		}
	})
}
