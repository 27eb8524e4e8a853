// Package minisql is a SQL lexer and parser for the statement subset the
// paper's prototype issues against its MySQL back-end (§5.1): one row
// (pre, post, parent, poly) per XML node, read by point lookups, range
// scans and simple aggregates. Nothing in the module executes these
// statements; node rows live in the paged engine of internal/store.
//
// # Supported SQL
//
//	CREATE TABLE t (col TYPE [PRIMARY KEY] [NOT NULL], ...)
//	CREATE [UNIQUE] INDEX idx ON t (col)
//	DROP TABLE t
//	INSERT INTO t [(cols)] VALUES (v, ...)[, (v, ...)]...
//	SELECT cols | * | AGG(col) FROM t [WHERE conj] [ORDER BY col [ASC|DESC]]
//	       [LIMIT n [OFFSET m]]
//	UPDATE t SET col = v, ... [WHERE conj]
//	DELETE FROM t [WHERE conj]
//
// WHERE clauses are conjunctions (AND) of simple predicates:
// col op value (=, !=, <>, <, <=, >, >=), col BETWEEN a AND b,
// col IS [NOT] NULL. Values are literals or ? placeholders. Aggregates:
// COUNT(*), COUNT(col), MIN(col), MAX(col), SUM(col).
//
// Types: INT/INTEGER/BIGINT (int64), DOUBLE/FLOAT/REAL (float64),
// TEXT/VARCHAR (string), BLOB ([]byte).
package minisql

// Value is a literal cell value: int64, float64, string, []byte or nil.
type Value any

// ColType enumerates the column types a CREATE TABLE may declare.
type ColType int

const (
	TInt ColType = iota
	TFloat
	TText
	TBlob
)

// Column describes one declared table column.
type Column struct {
	Name       string
	Type       ColType
	PrimaryKey bool
	NotNull    bool
}
