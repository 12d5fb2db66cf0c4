package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
)

// decode reads r's body into the scratch's body buffer and decodes it into
// v as decodeJSON would: unknown fields and trailing data refused.
//
// A body whose every key at a struct position is an exact field name names
// no unknown field, so json.Unmarshal decodes it without building a
// Decoder: the two share one state machine, and Unmarshal refuses trailing
// data itself. Every other body, and any body Unmarshal refuses, goes to
// decodeJSON over the same bytes, which alone decides a refusal and its
// error text. Nothing decoded aliases the buffer: Unmarshal copies strings.
func (sc *requestScratch) decode(r *http.Request, v any) error {
	body, err := readBody(r.Body, sc.body[:0])
	sc.body = body
	if err == nil && exactKeys(body, v) && json.Unmarshal(body, v) == nil {
		return nil
	}
	var rest io.Reader = bytes.NewReader(body)
	if err != nil {
		// The bytes read so far, then the body again, which repeats its
		// read error as a MaxBytesReader does: the strict decoder sees the
		// stream a decode straight off the body would, and answers the same
		// 413 or 400.
		rest = io.MultiReader(rest, r.Body)
	}
	return decodeJSON(rest, v)
}

// decodeJSON decodes one JSON value from rd into v with a strict
// json.Decoder, refusing unknown fields and anything but whitespace after
// the value. Its answer is the server's for every body.
func decodeJSON(rd io.Reader, v any) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	// Drain past the value: rejects trailing garbage and ensures an
	// oversized body trips the MaxBytesReader cap even when the leading
	// JSON value itself was small.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		if err == nil {
			return errors.New("invalid request body: unexpected trailing data")
		}
		return fmt.Errorf("invalid request body: %w", err)
	}
	return nil
}

// readBody appends everything rd yields to buf, as io.ReadAll does into a
// buffer of its own, and returns it with the first error other than
// io.EOF.
func readBody(rd io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) == 0 {
		buf = make([]byte, 0, 512)
	}
	for {
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// shape is what exactKeys knows of a Go type: a struct's JSON field names
// and each field's shape, or a list's element shape. Any other value is a
// scalar, whose bytes exactKeys skips.
type shape struct {
	kind   shapeKind
	names  []string // object: the fields' JSON names
	fields []*shape // object: fields[i] is the shape of names[i]'s field
	elem   *shape   // list: the element's shape
}

type shapeKind uint8

const (
	scalar shapeKind = iota
	object
	list
)

// shapes caches typeShape per pointer type decoded into; a nil *shape
// marks a type only the strict decoder takes.
var shapes sync.Map

// exactKeys reports whether data, read as the JSON value v points to, is
// one value whose every key at a struct position is an exact field name
// of that struct. It does not validate data: json.Unmarshal does, and an
// answer about invalid data only picks which decoder refuses it.
func exactKeys(data []byte, v any) bool {
	t := reflect.TypeOf(v)
	cached, ok := shapes.Load(t)
	if !ok {
		cached, _ = shapes.LoadOrStore(t, typeShape(t, map[reflect.Type]bool{}))
	}
	sh := cached.(*shape)
	if sh == nil {
		return false
	}
	end, ok := checkValue(data, skipSpace(data, 0), sh)
	return ok && skipSpace(data, end) == len(data)
}

// typeShape derives t's shape, or nil when t holds a map, an interface, an
// embedded struct, a struct that contains itself, or a field name the JSON
// decoder would not match byte for byte. open holds the structs being
// derived.
func typeShape(t reflect.Type, open map[reflect.Type]bool) *shape {
	switch t.Kind() {
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return &shape{kind: scalar}
	case reflect.Pointer:
		return typeShape(t.Elem(), open)
	case reflect.Slice, reflect.Array:
		if elem := typeShape(t.Elem(), open); elem != nil {
			return &shape{kind: list, elem: elem}
		}
	case reflect.Struct:
		if open[t] {
			return nil
		}
		open[t] = true
		defer delete(open, t)
		sh := &shape{kind: object}
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			tag := f.Tag.Get("json")
			if !f.Anonymous && (!f.IsExported() || tag == "-") {
				continue
			}
			name, _, _ := strings.Cut(tag, ",")
			if name == "" {
				name = f.Name
			}
			if f.Anonymous || !plainName(name) || sh.field([]byte(name)) != nil {
				return nil
			}
			field := typeShape(f.Type, open)
			if field == nil {
				return nil
			}
			sh.names = append(sh.names, name)
			sh.fields = append(sh.fields, field)
		}
		return sh
	}
	return nil
}

// plainName reports whether name holds only ASCII letters, digits, '_'
// and '-': a tag name the JSON decoder takes as written.
func plainName(name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_' || c == '-') {
			return false
		}
	}
	return name != ""
}

// field returns the shape of the field named key exactly, or nil.
func (sh *shape) field(key []byte) *shape {
	for i, name := range sh.names {
		if string(key) == name {
			return sh.fields[i]
		}
	}
	return nil
}

// checkValue checks the value at data[i] against sh and returns its end.
// A null stands for any struct or list.
func checkValue(data []byte, i int, sh *shape) (int, bool) {
	if sh.kind == scalar || bytes.HasPrefix(data[i:], []byte("null")) {
		return skipValue(data, i)
	}
	open, closing := byte('{'), byte('}')
	if sh.kind == list {
		open, closing = '[', ']'
	}
	if i >= len(data) || data[i] != open {
		return i, false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == closing {
		return i + 1, true
	}
	for {
		var ok bool
		if sh.kind == object {
			if i, ok = checkMember(data, i, sh); !ok {
				return i, false
			}
		} else if i, ok = checkValue(data, i, sh.elem); !ok {
			return i, false
		}
		i = skipSpace(data, i)
		if i < len(data) && data[i] == closing {
			return i + 1, true
		}
		if i >= len(data) || data[i] != ',' {
			return i, false
		}
		i = skipSpace(data, i+1)
	}
}

// checkMember checks the object member "key": value at data[i]: the key,
// unescaped, must name one of sh's fields, and the value must fit that
// field's shape.
func checkMember(data []byte, i int, sh *shape) (int, bool) {
	if i >= len(data) || data[i] != '"' {
		return i, false
	}
	end := i + 1
	for end < len(data) && data[end] != '"' && data[end] != '\\' {
		end++
	}
	if end >= len(data) || data[end] != '"' {
		return end, false
	}
	field := sh.field(data[i+1 : end])
	if field == nil {
		return end, false
	}
	i = skipSpace(data, end+1)
	if i >= len(data) || data[i] != ':' {
		return i, false
	}
	return checkValue(data, skipSpace(data, i+1), field)
}

// skipValue returns the end of the value at data[i], or false when data
// ends first or no value starts there. It matches strings and brackets but
// validates nothing.
func skipValue(data []byte, i int) (int, bool) {
	if i >= len(data) {
		return i, false
	}
	switch data[i] {
	case '"':
		return skipString(data, i)
	case '{', '[':
		depth := 0
		for i < len(data) {
			switch data[i] {
			case '"':
				var ok bool
				if i, ok = skipString(data, i); !ok {
					return i, false
				}
				continue
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1, true
				}
			}
			i++
		}
		return i, false
	}
	start := i
	for i < len(data) && !isSpace(data[i]) && data[i] != ',' && data[i] != '}' && data[i] != ']' {
		i++
	}
	return i, i > start
}

// skipString returns the end of the string whose opening quote is at
// data[i].
func skipString(data []byte, i int) (int, bool) {
	for i++; i < len(data); i++ {
		switch data[i] {
		case '\\':
			i++
		case '"':
			return i + 1, true
		}
	}
	return len(data), false
}

func skipSpace(data []byte, i int) int {
	for i < len(data) && isSpace(data[i]) {
		i++
	}
	return i
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
