package dead

import "testing"

func TestDead(t *testing.T) {
	if TestOnly()+len(Record2{}.peek()) != 3 {
		t.Fatal("TestOnly")
	}
}
