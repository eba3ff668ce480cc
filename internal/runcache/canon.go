// Package runcache turns each experiment design point into a
// content-addressed, reusable artifact: a canonical fingerprint over
// everything that determines a simulation's outcome, an in-process memo
// table that guarantees each fingerprint is simulated at most once per
// process, and an optional persistent Store (the warehouse) that keeps
// results across invocations. The experiment drivers submit points and
// render results; the engine decides whether a point is simulated,
// replayed from memory, or loaded from disk.
package runcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strconv"
)

// Fingerprint is the content address of one design point: a hex SHA-256
// over the canonical encoding of every input that determines the result.
type Fingerprint string

// Short returns an abbreviated fingerprint for log lines.
func (f Fingerprint) Short() string {
	if len(f) > 12 {
		return string(f[:12])
	}
	return string(f)
}

// fingerprintLen is the length of the hex SHA-256 digest Key emits.
const fingerprintLen = 2 * sha256.Size

// ParseFingerprint accepts exactly the form Key emits: 64 lowercase hex
// characters. It is the gate for fingerprints arriving from outside the
// process (an HTTP parameter, a legacy blob's file name), so a crafted
// value such as a path can never address a record.
func ParseFingerprint(s string) (Fingerprint, error) {
	if len(s) != fingerprintLen {
		return "", fmt.Errorf("runcache: fingerprint has %d characters, want %d lowercase hex", len(s), fingerprintLen)
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", fmt.Errorf("runcache: fingerprint %q is not lowercase hex", s)
		}
	}
	return Fingerprint(s), nil
}

// Key fingerprints an ordered list of parts. Each part is canonically
// encoded by reflection: structs serialize field-by-field in declaration
// order with field names, so the encoding is exhaustive by construction —
// a new field on pipeline.Config changes fingerprints automatically. Kinds
// whose encoding would be non-deterministic or lossy (maps, funcs,
// channels, interfaces) are rejected with an error naming the offending
// field, which is the guard that keeps the fingerprint honest as config
// structs grow.
func Key(parts ...any) (Fingerprint, error) {
	h := sha256.New()
	buf := make([]byte, 0, 512)
	for i, p := range parts {
		buf = buf[:0]
		buf = append(buf, "\x00part"...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, ':')
		var err error
		buf, err = appendCanon(buf, reflect.ValueOf(p), fmt.Sprintf("part[%d]", i))
		if err != nil {
			return "", err
		}
		h.Write(buf)
	}
	return Fingerprint(hex.EncodeToString(h.Sum(nil))), nil
}

// appendCanon writes a deterministic, self-delimiting encoding of v. path
// tracks the field chain for error messages. The encoding reads values
// through kind-specific accessors so unexported struct fields are covered
// too.
func appendCanon(buf []byte, v reflect.Value, path string) ([]byte, error) {
	if !v.IsValid() {
		return append(buf, "nil;"...), nil
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(buf, "b1;"...), nil
		}
		return append(buf, "b0;"...), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		buf = append(buf, 'i')
		buf = strconv.AppendInt(buf, v.Int(), 10)
		return append(buf, ';'), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		buf = append(buf, 'u')
		buf = strconv.AppendUint(buf, v.Uint(), 10)
		return append(buf, ';'), nil
	case reflect.Float32, reflect.Float64:
		// Hex float form is exact: distinct bit patterns (including -0 vs
		// +0) encode distinctly, so fingerprints never alias two configs
		// that simulate differently.
		buf = append(buf, 'f')
		buf = strconv.AppendFloat(buf, v.Float(), 'x', -1, 64)
		return append(buf, ';'), nil
	case reflect.String:
		s := v.String()
		buf = append(buf, 's')
		buf = strconv.AppendInt(buf, int64(len(s)), 10)
		buf = append(buf, ':')
		buf = append(buf, s...)
		return append(buf, ';'), nil
	case reflect.Pointer:
		if v.IsNil() {
			return append(buf, "nil;"...), nil
		}
		return appendCanon(buf, v.Elem(), path)
	case reflect.Struct:
		t := v.Type()
		buf = append(buf, '{')
		buf = append(buf, t.Name()...)
		buf = append(buf, ':')
		var err error
		for i := 0; i < t.NumField(); i++ {
			buf = append(buf, t.Field(i).Name...)
			buf = append(buf, '=')
			buf, err = appendCanon(buf, v.Field(i), path+"."+t.Field(i).Name)
			if err != nil {
				return nil, err
			}
		}
		return append(buf, '}'), nil
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			return append(buf, "nil;"...), nil
		}
		buf = append(buf, '[')
		buf = strconv.AppendInt(buf, int64(v.Len()), 10)
		buf = append(buf, ':')
		var err error
		for i := 0; i < v.Len(); i++ {
			buf, err = appendCanon(buf, v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			if err != nil {
				return nil, err
			}
		}
		return append(buf, ']'), nil
	default:
		return nil, fmt.Errorf("runcache: cannot fingerprint %s (kind %s): add explicit handling or remove the field",
			path, v.Kind())
	}
}
