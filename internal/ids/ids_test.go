package ids

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestRoleRefString(t *testing.T) {
	tests := []struct {
		name string
		ref  RoleRef
		want string
	}{
		{"scalar", Role("sender"), "sender"},
		{"family member", Member("recipient", 3), "recipient[3]"},
		{"family member one", Member("r", 1), "r[1]"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.ref.String(); got != tt.want {
				t.Errorf("String() = %q, want %q", got, tt.want)
			}
		})
	}
}

// TestRoleRefStringCached holds the cache of rendered member names to what
// String promised before there was one: roles that share a slot (more names
// than slots here) evict each other and still render as themselves, a name
// too long to cache renders all the same, a warm name costs nothing, and all
// of it from several goroutines at once.
func TestRoleRefStringCached(t *testing.T) {
	long := strings.Repeat("n", maxCachedName+1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= 2*len(memberNames); i++ {
				for _, name := range []string{"recipient", "m", long} {
					if got, want := Member(name, i).String(), name+"["+strconv.Itoa(i)+"]"; got != want {
						t.Errorf("Member(%q, %d).String() = %q", name, i, got)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	r := Member("recipient", 7)
	_ = r.String()
	if n := testing.AllocsPerRun(100, func() { _ = r.String() }); n != 0 {
		t.Fatalf("a warm member name costs %v allocations", n)
	}
}

func TestParseRoleRef(t *testing.T) {
	tests := []struct {
		in      string
		want    RoleRef
		wantErr bool
	}{
		{in: "sender", want: Role("sender")},
		{in: "recipient[3]", want: Member("recipient", 3)},
		{in: "r[1]", want: Member("r", 1)},
		{in: "", wantErr: true},
		{in: "r[0]", wantErr: true},
		{in: "r[-2]", wantErr: true},
		{in: "r[x]", wantErr: true},
		{in: "[3]", wantErr: true},
		{in: "r[3", want: Role("r[3"), wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			got, err := ParseRoleRef(tt.in)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("ParseRoleRef(%q) = %v, want error", tt.in, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseRoleRef(%q): %v", tt.in, err)
			}
			if got != tt.want {
				t.Errorf("ParseRoleRef(%q) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestParseRoleRefRoundTrip(t *testing.T) {
	f := func(name string, idx uint8) bool {
		if name == "" || sortContainsBracket(name) {
			return true // skip unrepresentable names
		}
		var r RoleRef
		if idx == 0 {
			r = Role(name)
		} else {
			r = Member(name, int(idx))
		}
		back, err := ParseRoleRef(r.String())
		return err == nil && back == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sortContainsBracket(s string) bool {
	for _, c := range s {
		if c == '[' || c == ']' {
			return true
		}
	}
	return false
}

func TestRoleRefLessIsTotalOrder(t *testing.T) {
	refs := []RoleRef{
		Role("b"), Member("b", 1), Member("b", 2),
		Role("a"), Member("a", 9), Role("c"),
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Less(refs[j]) })
	want := []RoleRef{
		Role("a"), Member("a", 9),
		Role("b"), Member("b", 1), Member("b", 2),
		Role("c"),
	}
	for i := range want {
		if refs[i] != want[i] {
			t.Fatalf("sorted[%d] = %v, want %v (full: %v)", i, refs[i], want[i], refs)
		}
	}
	// Less must be irreflexive and asymmetric.
	for _, r := range refs {
		if r.Less(r) {
			t.Errorf("%v.Less(itself) = true", r)
		}
	}
	for _, a := range refs {
		for _, b := range refs {
			if a != b && a.Less(b) && b.Less(a) {
				t.Errorf("Less not asymmetric for %v, %v", a, b)
			}
			if c := a.Compare(b); c != -b.Compare(a) || (c == 0) != (a == b) || (c < 0) != a.Less(b) {
				t.Errorf("%v.Compare(%v) = %d disagrees with Less or equality", a, b, c)
			}
		}
	}
}

func TestRoleSetBasics(t *testing.T) {
	s := NewRoleSet(Role("a"), Member("b", 1))
	if !s.Contains(Role("a")) || !s.Contains(Member("b", 1)) {
		t.Fatal("set missing inserted members")
	}
	if s.Contains(Role("b")) {
		t.Fatal("scalar b should not be present; only b[1] was added")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	s.Add(Role("c"))
	if !s.Contains(Role("c")) {
		t.Fatal("Add did not insert")
	}
}

func TestRoleSetSubsetUnionClone(t *testing.T) {
	a := NewRoleSet(Role("x"), Role("y"))
	b := NewRoleSet(Role("x"), Role("y"), Role("z"))
	if !a.SubsetOf(b) {
		t.Error("a should be subset of b")
	}
	if b.SubsetOf(a) {
		t.Error("b should not be subset of a")
	}
	u := a.Union(NewRoleSet(Role("z")))
	if !u.Contains(Role("z")) || u.Len() != 3 {
		t.Errorf("union wrong: %v", u)
	}
	c := a.Clone()
	c.Add(Role("w"))
	if a.Contains(Role("w")) {
		t.Error("Clone aliases original")
	}
}

func TestRoleSetString(t *testing.T) {
	s := NewRoleSet(Member("b", 2), Role("a"), Member("b", 1))
	if got, want := s.String(), "{a, b[1], b[2]}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got, want := NewRoleSet().String(), "{}"; got != want {
		t.Errorf("empty String = %q, want %q", got, want)
	}
}

func TestPIDSetNilMeansAny(t *testing.T) {
	var s PIDSet
	if !s.Contains("anything") {
		t.Error("nil PIDSet must contain every PID (partners-unnamed)")
	}
	if got, want := s.String(), "*"; got != want {
		t.Errorf("nil String = %q, want %q", got, want)
	}
}

func TestPIDSetNamed(t *testing.T) {
	s := NewPIDSet("A", "B")
	if !s.Contains("A") || !s.Contains("B") {
		t.Error("missing members")
	}
	if s.Contains("C") {
		t.Error("C should not be present")
	}
	if got, want := s.String(), "{A, B}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

func TestFamilyMembers(t *testing.T) {
	ms := FamilyMembers("recipient", 3)
	want := []RoleRef{Member("recipient", 1), Member("recipient", 2), Member("recipient", 3)}
	if len(ms) != len(want) {
		t.Fatalf("len = %d, want %d", len(ms), len(want))
	}
	for i := range want {
		if ms[i] != want[i] {
			t.Errorf("ms[%d] = %v, want %v", i, ms[i], want[i])
		}
	}
	if got := FamilyMembers("r", 0); len(got) != 0 {
		t.Errorf("FamilyMembers(0) = %v, want empty", got)
	}
}

func TestRoleSetSortedDeterministic(t *testing.T) {
	s := NewRoleSet(Member("r", 3), Member("r", 1), Role("s"), Member("r", 2))
	first := s.Sorted()
	for i := 0; i < 10; i++ {
		again := s.Sorted()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("Sorted not deterministic: %v vs %v", first, again)
			}
		}
	}
}
