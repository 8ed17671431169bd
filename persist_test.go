package uvdiagram_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"uvdiagram"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	db, objs := buildSmallDB(t, 300, nil)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := uvdiagram.Load(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != db.Len() {
		t.Fatalf("Len %d after load, want %d", loaded.Len(), db.Len())
	}
	if loaded.Domain() != db.Domain() {
		t.Fatalf("domain %v after load, want %v", loaded.Domain(), db.Domain())
	}
	if loaded.IndexStats() != db.IndexStats() {
		t.Fatalf("index stats differ: %+v vs %+v", loaded.IndexStats(), db.IndexStats())
	}
	rng := rand.New(rand.NewSource(31))
	for k := 0; k < 40; k++ {
		q := uvdiagram.Pt(rng.Float64()*2000, rng.Float64()*2000)
		a1, _, err := db.PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		a2, _, err := loaded.PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(a1) != len(a2) {
			t.Fatalf("query %v: answer counts differ after reload", q)
		}
		for i := range a1 {
			// The page images round-trip exactly, so answers are bitwise.
			if a1[i] != a2[i] {
				t.Fatalf("query %v: answers differ: %v vs %v", q, a1, a2)
			}
		}
	}
	// Inserts keep working after a reload.
	if err := loaded.Insert(uvdiagram.NewObject(int32(len(objs)), 1000, 1000, 15, nil)); err != nil {
		t.Fatal(err)
	}
	answers, _, err := loaded.PNN(uvdiagram.Pt(1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range answers {
		if a.ID == int32(len(objs)) {
			found = true
		}
	}
	if !found {
		t.Error("object inserted after reload is not answered at its center")
	}
}

func TestLoadErrors(t *testing.T) {
	db, _ := buildSmallDB(t, 50, nil)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := uvdiagram.Load(bytes.NewReader(nil), nil); err == nil {
		t.Error("empty stream accepted")
	}
	bad := append([]byte{1, 2, 3, 4}, data[4:]...)
	if _, err := uvdiagram.Load(bytes.NewReader(bad), nil); err == nil {
		t.Error("bad magic accepted")
	}
	for _, cut := range []int{6, 20, 60, len(data) / 2, len(data) - 2} {
		if _, err := uvdiagram.Load(bytes.NewReader(data[:cut]), nil); !errors.Is(err, uvdiagram.ErrCorruptSnapshot) {
			t.Errorf("truncation at %d: error %v does not match ErrCorruptSnapshot", cut, err)
		}
	}
}

// TestLoadRejectsImplausibleShardLayout: a crafted v3 header with a
// huge gx×gy must error cleanly instead of dying in allocation (the
// product check alone would overflow past the bound).
func TestLoadRejectsImplausibleShardLayout(t *testing.T) {
	var buf bytes.Buffer
	u32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		buf.Write(b[:])
	}
	f64 := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		buf.Write(b[:])
	}
	u32(0x55564442) // magic
	u32(3)          // sharded version
	f64(0)
	f64(0)
	f64(1000)
	f64(1000)
	u32(0xFFFFFFFF) // gx
	u32(0xFFFFFFFF) // gy
	if _, err := uvdiagram.Load(bytes.NewReader(buf.Bytes()), nil); err == nil {
		t.Fatal("Load accepted an implausible shard layout")
	}
}
