package systolic

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestTokenHoldsNoPointer guards the token's shape. Every pulse copies
// every wire's Token at least twice (latched into Inputs, presented in
// Outputs); a pointer-bearing field (string, slice, map, interface,
// pointer) would make each of those wire writes pay a GC write barrier,
// and a wider token a larger copy. Provenance that needs more than the
// tuple and element index belongs in a tracer, not on the wire.
func TestTokenHoldsNoPointer(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %v: Token must hold no pointer", path, typ.Kind())
		}
	}
	walk("Token", reflect.TypeOf(Token{}))
	if size := unsafe.Sizeof(Token{}); size > 24 {
		t.Errorf("Token is %d bytes, want at most 24", size)
	}
}
