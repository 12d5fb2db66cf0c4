package pool

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestScanLedgerMatchesDecoder: the byte scanner restore uses finds the
// same ledger elements and cost-log content as a json.Decoder walk that
// reads keys as json.Unmarshal does, on recorded snapshots, the committed
// older layouts, their indented forms, and variants with escaped,
// differently cased, duplicated and reordered keys; and on bytes that are
// not JSON it answers an error, never a panic.
func TestScanLedgerMatchesDecoder(t *testing.T) {
	var inputs [][]byte
	for _, name := range []string{"compacted-1.json", "compacted-2.json", "saved.json"} {
		raw, err := os.ReadFile(filepath.Join("testdata/history_format", name))
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, raw)
	}
	for _, name := range []string{"legacy-prepool", "legacy-prespec", "legacy-snapshot-durability", "traded"} {
		inputs = append(inputs, fuzzSeed(t, filepath.Join("testdata/fuzz/FuzzRestoreSnapshot", name)))
	}
	for _, raw := range inputs[:len(inputs):len(inputs)] {
		var indented bytes.Buffer
		if err := json.Indent(&indented, raw, " ", "\t"); err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, indented.Bytes(),
			bytes.Replace(raw, []byte(`"market":`), []byte(`"m\u0061rket":`), 1),
			bytes.Replace(raw, []byte(`"ledger":`), []byte(`"LEDGER":`), 1),
			bytes.Replace(raw, []byte(`"cost_log":`), []byte(`"cost_log":[{"N":1,"V":2,"Cost":3}],"Cost_Log":`), 1),
			bytes.Replace(raw, []byte(`"ledger":`), []byte(`"ledger":[],"x":{"ledger":[1]},"ledger":`), 1),
			bytes.Replace(raw, []byte(`{"version"`), []byte(`{"market":{"ledger":[{"Round":9}]},"version"`), 1))
	}
	inputs = append(inputs,
		[]byte(`{"market":null}`), []byte(`{"market":{"ledger":null,"cost_log":[]}}`),
		[]byte(`{"market":{"ledger":[ {"a":"]}\"["} , null ],"cost_log":[ {} ]}}`))
	for i, raw := range inputs {
		wantElems, wantCost, wantErr := scanLedgerDecoder(raw)
		// The decoder's spans start after the separator; the scanner's at
		// the element.
		trim := func(s span) span {
			for s.off < s.end && strings.IndexByte("[, \t\r\n", raw[s.off]) >= 0 {
				s.off++
			}
			return s
		}
		for j := range wantElems {
			wantElems[j] = trim(wantElems[j])
		}
		if wantCost != (span{}) {
			wantCost = trim(wantCost)
		}
		elems, cost, err := scanLedger(raw)
		if (err != nil) != (wantErr != nil) || !reflect.DeepEqual(elems, wantElems) || cost != wantCost {
			t.Errorf("input %d: scanner found %v %v (%v), the decoder %v %v (%v)", i, elems, cost, err, wantElems, wantCost, wantErr)
		}
		// Every prefix and a few corruptions are handled without a panic.
		for cut := 0; cut < len(raw); cut += 1 + len(raw)/97 {
			scanLedger(raw[:cut])
			bad := bytes.Clone(raw)
			bad[cut] = "{}[],:\"\\"[cut%8]
			scanLedger(bad)
		}
	}
}

// scanLedgerDecoder is scanLedger by a json.Decoder walk, the test's
// reference.
func scanLedgerDecoder(raw []byte) (elems []span, cost span, err error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	var skip json.RawMessage
	if err := expectDelim(dec, '{'); err != nil {
		return nil, span{}, err
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return nil, span{}, err
		}
		if k, _ := key.(string); !strings.EqualFold(k, "market") {
			if err := dec.Decode(&skip); err != nil {
				return nil, span{}, err
			}
			continue
		}
		elems, cost = nil, span{}
		tok, err := dec.Token()
		if err != nil {
			return nil, span{}, err
		}
		if tok == nil {
			continue
		}
		if tok != json.Delim('{') {
			return nil, span{}, fmt.Errorf("market is %v, not an object", tok)
		}
		for dec.More() {
			key, err := dec.Token()
			if err != nil {
				return nil, span{}, err
			}
			k, _ := key.(string)
			switch {
			case strings.EqualFold(k, "ledger"):
				elems, err = scanArray(dec, &skip)
			case strings.EqualFold(k, "cost_log"):
				var entries []span
				cost = span{}
				if entries, err = scanArray(dec, &skip); len(entries) > 0 {
					cost = span{entries[0].off, entries[len(entries)-1].end}
				}
			default:
				err = dec.Decode(&skip)
			}
			if err != nil {
				return nil, span{}, err
			}
		}
		if err := expectDelim(dec, '}'); err != nil {
			return nil, span{}, err
		}
	}
	return elems, cost, expectDelim(dec, json.Delim('}'))
}

// scanArray reads one array value (or null) and returns each element's
// span, which starts where the previous element or the bracket ended.
func scanArray(dec *json.Decoder, skip *json.RawMessage) ([]span, error) {
	tok, err := dec.Token()
	if err != nil || tok == nil {
		return nil, err
	}
	if tok != json.Delim('[') {
		return nil, fmt.Errorf("%v is not an array", tok)
	}
	var out []span
	for dec.More() {
		off := dec.InputOffset()
		if err := dec.Decode(skip); err != nil {
			return nil, err
		}
		out = append(out, span{off, dec.InputOffset()})
	}
	return out, expectDelim(dec, ']')
}

// expectDelim reads the next token, which must be d.
func expectDelim(dec *json.Decoder, d json.Delim) error {
	tok, err := dec.Token()
	if err == nil && tok != d {
		err = fmt.Errorf("found %v where %v belongs", tok, d)
	}
	return err
}
