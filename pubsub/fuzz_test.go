package pubsub

// Fuzz layer pinning the wire codec: decoding arbitrary bytes never
// panics or over-reads, and every decodable frame round-trips
// identically through both encodings — including the JSON↔binary
// cross-decode of the shared message fields. The seed corpus under
// testdata/fuzz/ holds one well-formed frame per message kind in each
// encoding, the handshake frames, and malformed or foreign-version
// frames; regenerate it with
//
//	go test ./pubsub -run TestWriteFuzzCorpus -write-fuzz-corpus

import (
	"probsum/internal/broker"
	"probsum/internal/persist"
	"probsum/internal/store"
	"probsum/internal/subscription"

	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"unicode/utf8"
)

// wireKind reports whether k is a protocol message kind both codecs
// express.
func wireKind(k broker.MsgKind) bool {
	return k >= broker.MsgSubscribe && k <= broker.MsgGossipDelta
}

// wireClean reports whether every identifier in the message is valid
// UTF-8. The binary codec enforces this on decode (IDs are text by
// protocol); hostile JSON can still smuggle invalid bytes into a
// decoded string, and such messages cannot round-trip through
// encoding/json (which substitutes U+FFFD on encode), so the fuzz
// properties skip them.
func wireClean(m *broker.Message) bool {
	if !utf8.ValidString(m.SubID) || !utf8.ValidString(m.PubID) || !utf8.ValidString(m.Target) {
		return false
	}
	// The binary decoder rejects a gossip-delta frame without its
	// member-view hash (the anti-entropy trigger is not optional), but
	// schemaless JSON can omit the field; such a message cannot
	// round-trip through the binary codec, so the properties skip it.
	if m.Kind == broker.MsgGossipDelta && m.MemberHash == 0 {
		return false
	}
	for _, it := range m.Subs {
		if !utf8.ValidString(it.SubID) {
			return false
		}
	}
	for _, id := range m.SubIDs {
		if !utf8.ValidString(id) {
			return false
		}
	}
	for _, it := range m.Pubs {
		if !utf8.ValidString(it.PubID) {
			return false
		}
	}
	for _, mb := range m.Members {
		if !utf8.ValidString(mb.ID) || !utf8.ValidString(mb.Addr) {
			return false
		}
	}
	return true
}

// fuzzSeeds returns the seed inputs shared by both fuzz targets and
// the checked-in corpus: every message kind in both encodings, the
// handshake frames, plus malformed variants.
func fuzzSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for _, fr := range codecTestFrames() {
		for _, codec := range []WireCodec{CodecJSON, CodecBinary5} {
			data, err := MarshalFrame(codec, nil, &fr)
			if err != nil {
				tb.Fatal(err)
			}
			seeds = append(seeds, data)
		}
	}
	hello, err := MarshalFrame(CodecJSON, nil, &Frame{Hello: "B1", Client: true, Addr: "127.0.0.1:7001", Codec: uint8(CodecBinary5)})
	if err != nil {
		tb.Fatal(err)
	}
	ack, err := MarshalFrame(CodecJSON, nil, &Frame{Ack: "B2", Codec: uint8(CodecBinary5), Cluster: 1})
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds,
		hello,
		ack,
		[]byte("{\n"),
		[]byte("null\n"),
		[]byte{binMagic},
		[]byte{binMagic, binVersion, 0xFF, 0xFF, 0xFF, 0x00},
		[]byte{binMagic, binVersion, 2, 0, 0, 0, 0x05, 0xFF},
		// A gossip frame with a truncated member count, and a
		// well-formed unsubscribe under an older build's version byte
		// (refused at the header).
		[]byte{binMagic, binVersion, 2, 0, 0, 0, byte(broker.MsgGossip), 0xFF},
		[]byte{binMagic, 1, 3, 0, 0, 0, byte(broker.MsgUnsubscribe), 0x01, 's'},
		// A gossip-delta truncated before its required member-view
		// hash, a gossip-delta whose hash is the reserved zero, a
		// ping-req with an undefined flags byte, and a ping-req
		// truncated before its piggyback member list.
		[]byte{binMagic, binVersion, 2, 0, 0, 0, byte(broker.MsgGossipDelta), 0x00},
		[]byte{binMagic, binVersion, 10, 0, 0, 0, byte(broker.MsgGossipDelta), 0x00, 0, 0, 0, 0, 0, 0, 0, 0},
		[]byte{binMagic, binVersion, 2, 0, 0, 0, byte(broker.MsgPingReq), 0x02},
		[]byte{binMagic, binVersion, 6, 0, 0, 0, byte(broker.MsgPingReq), 0x00, 0x02, 'B', '3', 0x07},
	)
	return seeds
}

// FuzzFrameDecode: arbitrary bytes must never panic the decoder; a
// successful decode must report a sane consumed length and yield a
// frame the encoder accepts back.
func FuzzFrameDecode(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := UnmarshalFrame(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if fr.Msg == nil {
			return // handshake or empty frame
		}
		if !wireKind(fr.Msg.Kind) || !wireClean(fr.Msg) {
			// JSON (being schemaless) can carry kinds outside the
			// protocol and non-UTF-8 identifier bytes; the binary codec
			// rejects both and the broker kills such connections at
			// dispatch.
			return
		}
		// Whatever decoded must re-encode under both codecs.
		if _, err := MarshalFrame(CodecBinary5, nil, &fr); err != nil {
			t.Fatalf("binary re-encode of decoded frame: %v", err)
		}
		if _, err := MarshalFrame(CodecJSON, nil, &fr); err != nil {
			t.Fatalf("json re-encode of decoded frame: %v", err)
		}
	})
}

// FuzzFrameRoundTrip: any decodable input must survive
// decode → encode → decode identically in BOTH codecs — the binary
// re-encode pins round-trip identity, the JSON re-encode pins the
// cross-codec agreement on shared fields.
func FuzzFrameRoundTrip(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, _, err := UnmarshalFrame(data)
		if err != nil || fr.Msg == nil || !wireKind(fr.Msg.Kind) || !wireClean(fr.Msg) {
			return
		}
		// Canonicalize through the binary codec first: it encodes
		// exactly the kind's protocol fields, where schemaless (and
		// case-insensitive) JSON can smuggle extras — e.g. a batch
		// payload on a plain subscribe — that no encoder emits.
		bin, err := MarshalFrame(CodecBinary5, nil, &fr)
		if err != nil {
			t.Fatalf("binary canonicalization encode: %v", err)
		}
		canon, _, err := UnmarshalFrame(bin)
		if err != nil {
			t.Fatalf("binary canonicalization decode: %v", err)
		}
		want := canonMsg(t, canon.Msg)
		for _, codec := range []WireCodec{CodecJSON, CodecBinary5} {
			enc, err := MarshalFrame(codec, nil, &canon)
			if err != nil {
				t.Fatalf("%v encode: %v", codec, err)
			}
			got, n, err := UnmarshalFrame(enc)
			if err != nil {
				t.Fatalf("%v re-decode: %v", codec, err)
			}
			if n != len(enc) {
				t.Fatalf("%v re-decode consumed %d of %d bytes", codec, n, len(enc))
			}
			if got.Msg == nil || canonMsg(t, got.Msg) != want {
				t.Fatalf("%v round trip:\n in  %s\n out %+v", codec, want, got.Msg)
			}
		}
	})
}

// logReplaySeeds builds seed journal images for FuzzLogReplay: a
// well-formed journal covering every record kind (written through the
// real DirStore so the file magic and CRC framing are authentic),
// torn and bit-flipped variants, and degenerate prefixes.
func logReplaySeeds(tb testing.TB) [][]byte {
	dir := tb.TempDir()
	st, err := persist.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	recs := [][]byte{
		encodeAttachRecord("alice", true),
		encodeAttachRecord("N1", false),
		encodeMessageRecord("alice", &broker.Message{Kind: broker.MsgSubscribe, SubID: "s1", Sub: box(0, 50, 0, 50)}),
		encodeMessageRecord("alice", &broker.Message{Kind: broker.MsgSubscribe, SubID: "s2", Sub: box(60, 90, 60, 90)}),
		encodeMessageRecord("N1", &broker.Message{Kind: broker.MsgPublish, PubID: "p1", Pub: subscription.NewPublication(10, 10)}),
		encodeMessageRecord("alice", &broker.Message{Kind: broker.MsgUnsubscribe, SubID: "s2"}),
		encodePubIDsRecord([]string{"p1", "p2"}),
	}
	for _, r := range recs {
		if r == nil {
			tb.Fatal("seed record failed to encode")
		}
		if err := st.Append(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		tb.Fatal(err)
	}
	if err := st.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "journal.wal"))
	if err != nil {
		tb.Fatal(err)
	}
	seeds := [][]byte{
		data,
		data[:len(data)/2],  // torn mid-record
		data[:len(data)-1],  // torn final byte
		{},                  // empty journal
		[]byte("PSUM"),      // partial magic
		[]byte("bogusfile"), // foreign file
	}
	if len(data) > 40 {
		bad := append([]byte(nil), data...)
		bad[30] ^= 0xFF // CRC mismatch mid-journal cuts the valid prefix there
		seeds = append(seeds, bad)
	}
	return seeds
}

// FuzzLogReplay: an arbitrary byte string treated as a journal image
// must never panic the replay path — the scanner recovers the longest
// valid record prefix, the record applier either applies or skips
// each one, and the broker that absorbed whatever replayed remains
// fully usable.
func FuzzLogReplay(f *testing.F) {
	for _, s := range logReplaySeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := broker.New("R", store.PolicyPairwise)
		if err != nil {
			t.Fatal(err)
		}
		applied := 0
		stats, err := persist.ScanJournal(data, func(rec []byte) error {
			if applyRecord(b, rec) == nil {
				applied++
			}
			return nil
		})
		if err != nil {
			t.Fatalf("scan returned an error although the apply callback never did: %v", err)
		}
		if applied > stats.Records {
			t.Fatalf("applied %d records but the scanner only validated %d", applied, stats.Records)
		}
		if stats.Truncated != (stats.DroppedBytes > 0) {
			t.Fatalf("inconsistent truncation report: %+v", stats)
		}
		// The longest-valid-prefix recovery is deterministic.
		again, err := persist.ScanJournal(data, nil)
		if err != nil {
			t.Fatal(err)
		}
		if again != stats {
			t.Fatalf("re-scan diverged: %+v vs %+v", again, stats)
		}
		// Whatever replayed, the broker still serves traffic.
		b.AttachClient("fuzz-probe-client")
		if _, err := b.Handle("fuzz-probe-client", broker.Message{
			Kind: broker.MsgSubscribe, SubID: "fuzz-probe-sub", Sub: box(0, 1, 0, 1),
		}); err != nil {
			t.Fatalf("broker unusable after replay: %v", err)
		}
	})
}

var writeFuzzCorpus = flag.Bool("write-fuzz-corpus", false, "regenerate the checked-in fuzz seed corpus under testdata/fuzz")

// TestWriteFuzzCorpus regenerates the seed corpus files (golden-file
// update pattern); without the flag it only verifies the checked-in
// corpus is present and decodes or fails cleanly.
func TestWriteFuzzCorpus(t *testing.T) {
	targets := map[string]func(testing.TB) [][]byte{
		"FuzzFrameDecode":    fuzzSeeds,
		"FuzzFrameRoundTrip": fuzzSeeds,
		"FuzzLogReplay":      logReplaySeeds,
	}
	if *writeFuzzCorpus {
		for target, seedsOf := range targets {
			dir := filepath.Join("testdata", "fuzz", target)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for i, seed := range seedsOf(t) {
				// The Go fuzz corpus file format: a version header and
				// one Go-syntax literal per fuzz argument.
				body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
				name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
				if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		return
	}
	for target := range targets {
		files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "seed-*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("no checked-in corpus for %s (run with -write-fuzz-corpus)", target)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(data, []byte("go test fuzz v1\n")) {
				t.Errorf("%s: not a go fuzz corpus file", f)
			}
		}
	}
}
