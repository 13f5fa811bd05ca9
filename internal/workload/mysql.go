package workload

import (
	"leakpruning/internal/heap"
	"leakpruning/internal/vm"
)

// MySQL reproduces the JDBC statement leak (§6): the connection keeps every
// executed SQL statement in a hash table unless statements are explicitly
// closed. The table and the statements are live — growing the table rehashes
// every element, touching them — but each statement retains a relatively
// large dead result structure. Leak pruning selects and prunes references
// from statements to their dead data, extending the program's lifetime by
// the dead/live byte ratio (the paper's 35×).

func init() {
	register("mysql", true, func() Program { return newMySQL() })
}

type mySQL struct {
	table   heap.ClassID // StatementTable: buckets
	buckets heap.ClassID // BucketArray: variable ref slots
	entry   heap.ClassID // TableEntry: statement, next
	stmt    heap.ClassID // Statement: result, meta
	result  heap.ClassID // ResultBuffer: rows
	rows    heap.ClassID // RowData
	meta    heap.ClassID // QueryMetadata
	parse   heap.ClassID // transient parse scratch

	tableG  int
	count   int // statements inserted (program-side bookkeeping)
	nbucket int
	rnd     *rng
}

func newMySQL() *mySQL { return &mySQL{rnd: newRNG(0xdb)} }

func (p *mySQL) Name() string { return "mysql" }
func (p *mySQL) Description() string {
	return "JDBC statement leak: live hash table of statements, each retaining a dead result structure"
}
func (p *mySQL) DefaultHeap() uint64 { return 8 << 20 }

const (
	mysqlStmtsPerIter  = 20
	mysqlInitialBucket = 64
	mysqlLoadFactor    = 4 // rehash when count > 4 * buckets
	mysqlRowBytes      = 3072
	mysqlResultBytes   = 512
	mysqlMetaBytes     = 96
)

func (p *mySQL) Setup(t *vm.Thread) {
	v := t.VM()
	p.table = v.DefineClass("StatementTable", 1, 32)
	p.buckets = v.DefineClass("BucketArray", 0, 0) // slots set per allocation
	p.entry = v.DefineClass("TableEntry", 2, 16)
	p.stmt = v.DefineClass("Statement", 2, 64)
	p.result = v.DefineClass("ResultBuffer", 1, mysqlResultBytes)
	p.rows = v.DefineClass("RowData", 0, mysqlRowBytes)
	p.meta = v.DefineClass("QueryMetadata", 0, mysqlMetaBytes)
	p.parse = v.DefineClass("ParseTemp", 0, 128)
	p.tableG = v.AddGlobal()
	p.nbucket = mysqlInitialBucket

	t.InFrame(1, func(f *vm.Frame) {
		table := t.New(p.table)
		f.Set(0, table)
		arr := t.New(p.buckets, heap.WithRefSlots(p.nbucket))
		t.Store(table, 0, arr)
		t.StoreGlobal(p.tableG, table)
	})
}

func (p *mySQL) Iterate(t *vm.Thread, iter int) bool { return held(t, iter, p.iterate) }

func (p *mySQL) iterate(t *vm.Thread, iter int) bool {
	t.InFrame(3, func(f *vm.Frame) {
		for j := 0; j < mysqlStmtsPerIter; j++ {
			// Execute a statement: the JDBC driver allocates the statement
			// and its result set...
			stmt := t.New(p.stmt)
			f.Set(0, stmt)
			res := t.New(p.result)
			t.Store(stmt, 0, res)
			rows := t.New(p.rows)
			t.Store(res, 0, rows)
			m := t.New(p.meta)
			t.Store(stmt, 1, m)

			// ...and, because the statement is never closed, records it in
			// the connection's statement table forever.
			p.insert(t, f, stmt)
			p.count++
		}
		if p.count > mysqlLoadFactor*p.nbucket {
			p.rehash(t, f)
		}
	})
	churn(t, p.parse, mysqlStmtsPerIter)
	return false
}

// insert pushes the statement onto its bucket chain. Frame slot 0 holds the
// statement; slots 1–2 are scratch.
func (p *mySQL) insert(t *vm.Thread, f *vm.Frame, stmt heap.Ref) {
	table := t.LoadGlobal(p.tableG)
	arr := t.Load(table, 0)
	b := p.rnd.intn(p.nbucket)
	entry := t.New(p.entry)
	f.Set(1, entry)
	t.Store(entry, 0, stmt)
	t.Store(entry, 1, t.Load(arr, b))
	t.Store(arr, b, entry)
}

// rehash doubles the bucket array and reinserts every entry. This is the
// access pattern that keeps the statements live: rehashing loads every
// entry and every statement (§6: "when MySQL causes the size of one of its
// hash tables to grow, it accesses all the elements to rehash them").
func (p *mySQL) rehash(t *vm.Thread, f *vm.Frame) {
	table := t.LoadGlobal(p.tableG)
	old := t.Load(table, 0)
	oldN := p.nbucket
	p.nbucket *= 2
	arr := t.New(p.buckets, heap.WithRefSlots(p.nbucket))
	f.Set(2, arr)
	for b := 0; b < oldN; b++ {
		cur := t.Load(old, b)
		for !cur.IsNull() {
			next := t.Load(cur, 1)
			t.Load(cur, 0) // touch the statement to recompute its hash
			nb := p.rnd.intn(p.nbucket)
			t.Store(cur, 1, t.Load(arr, nb))
			t.Store(arr, nb, cur)
			cur = next
		}
	}
	t.Store(table, 0, arr)
}
