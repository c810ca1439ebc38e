package serve

import "bytes"

// splitProblem finds the "graph" and "flows" members of a JSON object
// body without parsing them. It returns their exact value bytes, and the
// body with each of those two values replaced by null: the small rest of
// an envelope, which json.Unmarshal decodes in microseconds where the
// whole body takes milliseconds.
//
// The scanner tokenizes the top-level object strictly (keys, colons,
// commas) and skips every value by string and bracket matching, which on
// valid JSON finds exactly the tokens encoding/json finds. It declines
// (ok false) whenever a whole-body decode could read the two members
// differently from it:
//   - the top level is not an object, or a string or bracket is left open;
//   - a top-level key holds a '\' or a byte >= 0x80: encoding/json matches
//     keys with Unicode case folding ("flowſ" is flows);
//   - a top-level key is a case variant of graph or flows, or either
//     appears twice;
//   - either member is missing, or its value does not start with '{' or '[';
//   - anything but JSON whitespace follows the closing '}'.
//
// An accepted split is only a candidate. What makes it safe is the memo:
// see decodeRequest.
func splitProblem(body []byte) (graph, flows, rest []byte, ok bool) {
	var spans [2][2]int // [start, end) of the graph (0) and flows (1) values; end 0 = absent
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return nil, nil, nil, false
	}
	i = skipSpace(body, i+1)
	for {
		if i == len(body) || body[i] != '"' {
			return nil, nil, nil, false
		}
		end := skipString(body, i)
		if end < 0 {
			return nil, nil, nil, false
		}
		member := -1
		switch key := body[i+1 : end-1]; {
		case !plainKey(key):
			return nil, nil, nil, false
		case string(key) == "graph":
			member = 0
		case string(key) == "flows":
			member = 1
		case bytes.EqualFold(key, []byte("graph")) || bytes.EqualFold(key, []byte("flows")):
			return nil, nil, nil, false
		}
		if i = skipSpace(body, end); i == len(body) || body[i] != ':' {
			return nil, nil, nil, false
		}
		if i = skipSpace(body, i+1); i == len(body) {
			return nil, nil, nil, false
		}
		start := i
		if member >= 0 && (spans[member][1] != 0 || (body[i] != '{' && body[i] != '[')) {
			return nil, nil, nil, false
		}
		if i = skipValue(body, i); i < 0 {
			return nil, nil, nil, false
		}
		if member >= 0 {
			spans[member] = [2]int{start, i}
		}
		if i = skipSpace(body, i); i == len(body) {
			return nil, nil, nil, false
		}
		if body[i] == '}' {
			break
		}
		if body[i] != ',' {
			return nil, nil, nil, false
		}
		i = skipSpace(body, i+1)
	}
	if skipSpace(body, i+1) != len(body) || spans[0][1] == 0 || spans[1][1] == 0 {
		return nil, nil, nil, false
	}
	first, second := spans[0], spans[1]
	if second[0] < first[0] {
		first, second = second, first
	}
	rest = make([]byte, 0, len(body)-(first[1]-first[0])-(second[1]-second[0])+2*len("null"))
	rest = append(rest, body[:first[0]]...)
	rest = append(rest, "null"...)
	rest = append(rest, body[first[1]:second[0]]...)
	rest = append(rest, "null"...)
	rest = append(rest, body[second[1]:]...)
	g, f := spans[0], spans[1]
	return body[g[0]:g[1]:g[1]], body[f[0]:f[1]:f[1]], rest, true
}

// plainKey reports whether a raw key is ASCII without escapes, so that its
// bytes are the key encoding/json matches on.
func plainKey(key []byte) bool {
	for _, c := range key {
		if c == '\\' || c >= 0x80 {
			return false
		}
	}
	return true
}

// skipSpace returns the index of the first non-whitespace byte at or after
// i (len(b) if none), with whitespace as JSON defines it.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// skipString returns the index just past the string opening at b[i], or
// -1 if it is not closed.
func skipString(b []byte, i int) int {
	for i++; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return -1
}

// Byte classes for skipValue's bracket matching: a table lookup per byte
// is cheaper than comparing each byte against five characters.
const (
	classQuote = 1 + iota
	classEscape
	classOpen
	classClose
)

var jsonClass = [256]uint8{'"': classQuote, '\\': classEscape, '{': classOpen, '[': classOpen, '}': classClose, ']': classClose}

// skipValue returns the index just past the value starting at b[i]: a
// string, an object or array matched bracket for bracket, or a literal
// running to the next delimiter. It returns -1 for an unclosed string or
// bracket and for an empty literal.
func skipValue(b []byte, i int) int {
	switch b[i] {
	case '"':
		return skipString(b, i)
	case '{', '[':
		depth, inString := 0, false
		for ; i < len(b); i++ {
			switch c := jsonClass[b[i]]; {
			case c == 0:
			case inString:
				if c == classEscape {
					i++
				} else if c == classQuote {
					inString = false
				}
			case c == classQuote:
				inString = true
			case c == classOpen:
				depth++
			case c == classClose:
				if depth--; depth == 0 {
					return i + 1
				}
			}
		}
		return -1
	}
	start := i
	for ; i < len(b); i++ {
		if c := b[i]; c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ',' || c == '}' || c == ']' {
			break
		}
	}
	if i == start {
		return -1
	}
	return i
}
