package sqlparse

import (
	"strings"
	"testing"

	"repro/internal/sqltypes"
)

// TestMemoFollowsRewrites: a memoized derivation is computed once per
// parsed Select, and no rewritten copy of it — a shallow copy edited the
// way the partitioned router strips LIMIT for a scatter, or a BindParams
// result — is ever served its original's value.
func TestMemoFollowsRewrites(t *testing.T) {
	st, err := Parse("SELECT v FROM kv WHERE k = ? LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*Select)
	derived := 0
	render := func(s *Select) *string {
		derived++
		text := s.SQL()
		return &text
	}
	first := Memo(sel, render)
	if again := Memo(sel, render); again != first || derived != 1 {
		t.Fatalf("second Memo derived again (%d derivations)", derived)
	}

	scatter := *sel
	scatter.Limit = -1
	if got := *Memo(&scatter, render); got != scatter.SQL() || strings.Contains(got, "LIMIT") {
		t.Fatalf("rewritten copy got %q, want %q", got, scatter.SQL())
	}
	if got := *Memo(sel, render); got != sel.SQL() {
		t.Fatalf("original after its copy memoized: got %q, want %q", got, sel.SQL())
	}

	bound, err := BindParams(sel, []sqltypes.Value{sqltypes.NewInt(7)})
	if err != nil {
		t.Fatal(err)
	}
	if got := *Memo(bound.(*Select), render); got != bound.SQL() || !strings.Contains(got, "7") {
		t.Fatalf("bound copy got %q, want %q", got, bound.SQL())
	}

	// A derivation of another type never reads this one's value.
	count := func(s *Select) *int { n := len(s.Items); return &n }
	if got := *Memo(sel, count); got != 1 {
		t.Fatalf("second consumer got %d, want 1", got)
	}
	if got := *Memo(sel, render); got != sel.SQL() {
		t.Fatalf("first consumer after the second: got %q", got)
	}
}
