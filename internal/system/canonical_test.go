package system

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"tetriswrite/internal/stats"
	"tetriswrite/internal/telemetry"
)

// canonicalDigest hashes a Result through writeCanonical: every exported
// field by name and value, in declaration order. It pins what a run
// reports, not how the statistics are stored, so a change of internal
// representation leaves it unchanged while any reported number moves it.
func canonicalDigest(t *testing.T, r Result) string {
	t.Helper()
	var b strings.Builder
	if err := writeCanonical(&b, "Result", reflect.ValueOf(r)); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

var (
	latencyType = reflect.TypeOf(stats.Latency{})
	samplerType = reflect.TypeOf((*telemetry.Sampler)(nil))
)

// writeCanonical writes v as one "path=value" line per scalar. A
// stats.Latency is written as its count, sum, min, max and non-empty
// (bucket, count) pairs in bucket order; a telemetry sampler as its
// JSON-lines export; a nil pointer as "nil". Any other type with
// unexported fields, or a kind without a defined rendering (maps,
// interfaces, funcs), is an error: the encoder must be taught it rather
// than skip it silently.
func writeCanonical(w *strings.Builder, path string, v reflect.Value) error {
	switch v.Type() {
	case latencyType:
		l := v.Interface().(stats.Latency)
		fmt.Fprintf(w, "%s=count:%d sum:%s min:%d max:%d buckets:", path,
			l.Count(), strconv.FormatFloat(l.Sum(), 'g', -1, 64), l.Min(), l.Max())
		l.Buckets(func(b int, n int64) { fmt.Fprintf(w, " %d:%d", b, n) })
		w.WriteByte('\n')
		return nil
	case samplerType:
		if v.IsNil() {
			fmt.Fprintf(w, "%s=nil\n", path)
			return nil
		}
		fmt.Fprintf(w, "%s=\n", path)
		return v.Interface().(*telemetry.Sampler).WriteJSONLines(w)
	}
	switch v.Kind() {
	case reflect.Bool:
		fmt.Fprintf(w, "%s=%t\n", path, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(w, "%s=%d\n", path, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fmt.Fprintf(w, "%s=%d\n", path, v.Uint())
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(w, "%s=%s\n", path, strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.String:
		fmt.Fprintf(w, "%s=%q\n", path, v.String())
	case reflect.Pointer:
		if v.IsNil() {
			fmt.Fprintf(w, "%s=nil\n", path)
			return nil
		}
		return writeCanonical(w, path, v.Elem())
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(w, "%s.len=%d\n", path, v.Len())
		for i := 0; i < v.Len(); i++ {
			if err := writeCanonical(w, fmt.Sprintf("%s[%d]", path, i), v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				return fmt.Errorf("%s: %s has unexported field %s and no canonical encoding", path, v.Type(), f.Name)
			}
			if err := writeCanonical(w, path+"."+f.Name, v.Field(i)); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("%s: no canonical encoding for %s", path, v.Type())
	}
	return nil
}
