package msg

import (
	"reflect"
	"testing"
)

func TestMessageRefcountLastRelease(t *testing.T) {
	m := &Message{Type: Invalidate}
	m.InitRefs(3) // e.g. a 3-packet multicast chain
	if m.Release() {
		t.Fatal("first of 3 releases claimed ownership")
	}
	m.AddRef() // a consume copy appears before the chain finishes
	if m.Release() || m.Release() {
		t.Fatal("mid-chain release claimed ownership")
	}
	if !m.Release() {
		t.Fatal("final release did not claim ownership")
	}
}

func TestMessageRefcountUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("release past zero did not panic")
		}
	}()
	m := &Message{}
	m.InitRefs(1)
	m.Release()
	m.Release() // one release too many — a double packet death
}

// fillNonZero sets every settable field reachable from v to a non-zero
// value, so a copy that skips one is visible.
func fillNonZero(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				fillNonZero(t, v.Field(i))
			}
		}
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(5)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(5)
	default:
		t.Fatalf("Message grew a field of kind %s: teach CopyFrom and this test about it", v.Kind())
	}
}

// TestCopyFromCopiesEveryField pins the two halves of CopyFrom's contract:
// every exported field of the source arrives (a field added to Message and
// forgotten in CopyFrom fails here), and the destination keeps its own
// packet reference count — the source's is never read.
func TestCopyFromCopiesEveryField(t *testing.T) {
	src := new(Message)
	fillNonZero(t, reflect.ValueOf(src).Elem())
	src.InitRefs(3)
	dst := new(Message)
	dst.InitRefs(7)
	dst.CopyFrom(src)
	sv, dv := reflect.ValueOf(src).Elem(), reflect.ValueOf(dst).Elem()
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		if name == "refs" {
			continue
		}
		if sv.Field(i).IsZero() {
			t.Fatalf("test bug: source field %s left zero", name)
		}
		if !reflect.DeepEqual(sv.Field(i).Interface(), dv.Field(i).Interface()) {
			t.Errorf("field %s not copied: src=%v dst=%v", name, sv.Field(i), dv.Field(i))
		}
	}
	if dst.refs != 7 || src.refs != 3 {
		t.Errorf("reference counts after copy: dst=%d (want 7, untouched) src=%d (want 3)", dst.refs, src.refs)
	}
}
