package sqlparse

import "sync/atomic"

// memoSlot holds one value derived from a parsed Select (see Memo). The
// parser gives every Select its own slot; shallow copies share it.
type memoSlot struct{ v atomic.Pointer[memoVal] }

// memoVal is a derived value tagged with the node it was derived from.
type memoVal struct {
	of  *Select
	val any
}

// Memo returns derive(s), computed at most once per parsed Select node and
// then shared by every goroutine holding the node (concurrent first calls
// may each derive; one result is kept). It is for values that are a pure
// function of the statement, such as the query cache's key text and table
// list, which would otherwise be re-rendered on every execution.
//
// The memo cannot go stale when an AST is rewritten. ASTs are immutable by
// convention and rewriters copy on write (out := *s): a copy shares its
// original's slot but not its identity, so the identity tag keeps it from
// ever reading the original's value, and it derives its own. A caller of a
// different T never reads another's value either; it re-derives. Selects
// not built by the parser have no slot and derive on every call.
func Memo[T any](s *Select, derive func(*Select) *T) *T {
	if s.memo == nil {
		return derive(s)
	}
	if m := s.memo.v.Load(); m != nil && m.of == s {
		if v, ok := m.val.(*T); ok {
			return v
		}
	}
	v := derive(s)
	s.memo.v.Store(&memoVal{of: s, val: v})
	return v
}
