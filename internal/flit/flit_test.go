package flit

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

func TestClassStrings(t *testing.T) {
	cases := map[Class]string{
		ClassCBR:        "CBR",
		ClassVBR:        "VBR",
		ClassControl:    "control",
		ClassBestEffort: "best-effort",
		Class(99):       "Class(99)",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", c, got, want)
		}
	}
}

func TestClassIsStream(t *testing.T) {
	if !ClassCBR.IsStream() || !ClassVBR.IsStream() {
		t.Fatal("CBR/VBR must be stream classes")
	}
	if ClassControl.IsStream() || ClassBestEffort.IsStream() {
		t.Fatal("control/best-effort must not be stream classes")
	}
}

func TestNumClasses(t *testing.T) {
	if NumClasses != 4 {
		t.Fatalf("NumClasses = %d, want 4", NumClasses)
	}
}

func TestFlitString(t *testing.T) {
	f := &Flit{Conn: 3, Class: ClassCBR, CreatedAt: 9, ReadyAt: 12}
	s := f.String()
	for _, frag := range []string{"conn=3", "CBR", "created=9", "ready=12"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("flit string %q missing %q", s, frag)
		}
	}
}

func TestInvalidConnSentinel(t *testing.T) {
	var f Flit
	if f.Conn == InvalidConn {
		t.Fatal("zero value must not equal InvalidConn — zero is a valid connection ID")
	}
}

// TestFlitLayout holds a flit to what the model reads of it: 40 bytes and
// no pointer, so a pooled flit is one small object the GC never scans.
func TestFlitLayout(t *testing.T) {
	if sz := unsafe.Sizeof(Flit{}); sz != 40 {
		t.Fatalf("Flit is %d bytes, want 40", sz)
	}
	ft := reflect.TypeOf(Flit{})
	for i := 0; i < ft.NumField(); i++ {
		switch k := ft.Field(i).Type.Kind(); k {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface, reflect.String, reflect.Func, reflect.Chan:
			t.Errorf("Flit.%s is a %v: a flit holds no pointer", ft.Field(i).Name, k)
		}
	}
}
