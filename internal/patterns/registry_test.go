package patterns

import (
	"strings"
	"testing"
)

// TestByNameServesItsOwnName: a name Names lists is the name the definition
// built for it answers to, so what `scriptd -list` prints is what a client's
// EnrollerConfig.Script must say.
func TestByNameServesItsOwnName(t *testing.T) {
	names := Names()
	if len(names) != 9 {
		t.Fatalf("Names() lists %d scripts, want the library's 9: %v", len(names), names)
	}
	for _, name := range names {
		def, err := ByName(name, 3)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if def.Name() != name {
			t.Errorf("ByName(%q) builds a script that serves as %q", name, def.Name())
		}
	}
	if _, err := ByName("no_such_pattern", 3); err == nil || !strings.Contains(err.Error(), names[0]) {
		t.Errorf("unknown name: err = %v, want one listing the names", err)
	}
}
