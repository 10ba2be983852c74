package train

import (
	"reflect"
	"testing"
)

// Augment must produce byte-identical variants (geometry and sign-off
// labels) no matter how many workers label them.
func TestAugmentWorkerCountInvariant(t *testing.T) {
	s := sample(t, "spm", 1.0, true)
	serial, err := Augment(s, 3, 10, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Augment(s, 3, 10, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("variant count %d vs %d", len(serial), len(parallel))
	}
	for k := range serial {
		if serial[k].Name != parallel[k].Name {
			t.Fatalf("variant %d name %q vs %q", k, serial[k].Name, parallel[k].Name)
		}
		if !reflect.DeepEqual(serial[k].Forest.Trees, parallel[k].Forest.Trees) {
			t.Fatalf("variant %d forest differs between worker counts", k)
		}
		if !reflect.DeepEqual(serial[k].Labels, parallel[k].Labels) {
			t.Fatalf("variant %d labels differ between worker counts", k)
		}
	}
}
