package pubsub

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"probsum/internal/broker"
	"probsum/internal/interval"
	"probsum/internal/subscription"
)

// codecTestFrames is one message frame of every kind, shared by the
// round-trip tests, the fuzz seeds, and the corpus generator.
func codecTestFrames() []Frame {
	sub := subscription.New(interval.New(0, 50), interval.New(-10, 1000))
	sub2 := subscription.New(interval.New(3, 3), interval.New(0, 0))
	pub := subscription.NewPublication(25, 500)
	return []Frame{
		{Msg: &broker.Message{Kind: broker.MsgSubscribe, SubID: "alice/1", Sub: sub}},
		{Msg: &broker.Message{Kind: broker.MsgUnsubscribe, SubID: "alice/1"}},
		{Msg: &broker.Message{Kind: broker.MsgPublish, PubID: "p-1", Pub: pub}},
		{Msg: &broker.Message{Kind: broker.MsgNotify, SubID: "alice/1", PubID: "p-1", Pub: pub}},
		{Msg: &broker.Message{Kind: broker.MsgSubscribeBatch, Subs: []broker.BatchSub{
			{SubID: "b/1", Sub: sub},
			{SubID: "b/2", Sub: sub2},
		}}},
		{Msg: &broker.Message{Kind: broker.MsgUnsubscribeBatch, SubIDs: []string{"b/1", "b/2"}}},
		// Producer-side publish batches and the cluster membership
		// control frames.
		{Msg: &broker.Message{Kind: broker.MsgPublishBatch, Pubs: []broker.BatchPub{
			{PubID: "p-1", Pub: pub},
			{PubID: "p-2", Pub: subscription.NewPublication(3)},
		}}},
		{Msg: &broker.Message{Kind: broker.MsgPing, Seq: 42}},
		{Msg: &broker.Message{Kind: broker.MsgPong, Seq: 42}},
		{Msg: &broker.Message{Kind: broker.MsgGossip, Members: []broker.MemberInfo{
			{ID: "B1", Addr: "10.0.0.7:7001", Incarnation: 3, State: broker.MemberAlive},
			{ID: "B2", Incarnation: 1, State: broker.MemberDead},
		}}},
		// Gossip piggybacking a link digest, and the digest-mismatch
		// sync exchange.
		{Msg: &broker.Message{Kind: broker.MsgGossip, Members: []broker.MemberInfo{
			{ID: "B1", Addr: "10.0.0.7:7001", Incarnation: 3, State: broker.MemberAlive},
		}, Digest: &broker.LinkDigest{Count: 7, Root: 0xC0FFEE}}},
		{Msg: &broker.Message{Kind: broker.MsgSyncRequest, Buckets: []uint64{0, 1, ^uint64(0)}}},
		{Msg: &broker.Message{Kind: broker.MsgSyncRoots, Mask: 0b1010, Subs: []broker.BatchSub{
			{SubID: "b/1", Sub: sub},
		}}},
		// Indirect probes (both directions) and bounded delta gossip
		// with its required member-view hash, plus the ping/pong
		// piggyback tail.
		{Msg: &broker.Message{Kind: broker.MsgPingReq, Target: "B3", Seq: 9, Members: []broker.MemberInfo{
			{ID: "B4", Addr: "10.0.0.9:7001", Incarnation: 2, State: broker.MemberSuspect},
		}}},
		{Msg: &broker.Message{Kind: broker.MsgPingReq, Ack: true, Target: "B3", Seq: 9}},
		{Msg: &broker.Message{Kind: broker.MsgPing, Seq: 7, Members: []broker.MemberInfo{
			{ID: "B5", Incarnation: 4, State: broker.MemberAlive},
		}}},
		{Msg: &broker.Message{Kind: broker.MsgGossipDelta, MemberHash: 0xFEED, Members: []broker.MemberInfo{
			{ID: "B6", Addr: "10.0.0.11:7001", Incarnation: 1, State: broker.MemberAlive},
		}}},
		{Msg: &broker.Message{Kind: broker.MsgGossipDelta, MemberHash: 1,
			Digest: &broker.LinkDigest{Count: 3, Root: 0xBEEF}}},
		// Degenerate payloads the codec must carry faithfully.
		{Msg: &broker.Message{Kind: broker.MsgPublish, PubID: ""}},
		{Msg: &broker.Message{Kind: broker.MsgSubscribeBatch}},
		{Msg: &broker.Message{Kind: broker.MsgPublishBatch}},
		{Msg: &broker.Message{Kind: broker.MsgGossip}},
		{Msg: &broker.Message{Kind: broker.MsgPing}},
	}
}

// canonMsg reduces a message to its canonical JSON so nil-vs-empty
// slice differences (invisible on the wire) do not fail comparisons.
func canonMsg(t testing.TB, m *broker.Message) string {
	t.Helper()
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("canon: %v", err)
	}
	return string(data)
}

func TestCodecRoundTrip(t *testing.T) {
	for _, codec := range []WireCodec{CodecJSON, CodecBinary5} {
		for _, fr := range codecTestFrames() {
			data, err := MarshalFrame(codec, nil, &fr)
			if err != nil {
				t.Fatalf("%v marshal %+v: %v", codec, fr.Msg, err)
			}
			got, n, err := UnmarshalFrame(data)
			if err != nil {
				t.Fatalf("%v unmarshal %+v: %v", codec, fr.Msg, err)
			}
			if n != len(data) {
				t.Fatalf("%v consumed %d of %d bytes", codec, n, len(data))
			}
			if got.Msg == nil {
				t.Fatalf("%v round trip lost the message", codec)
			}
			if canonMsg(t, got.Msg) != canonMsg(t, fr.Msg) {
				t.Fatalf("%v round trip:\n in  %s\n out %s", codec, canonMsg(t, fr.Msg), canonMsg(t, got.Msg))
			}
		}
	}
}

// TestCodecCrossDecode pins that the two codecs agree on the shared
// message fields: binary-encoded frames re-encoded as JSON decode to
// the same message, and vice versa.
func TestCodecCrossDecode(t *testing.T) {
	for _, fr := range codecTestFrames() {
		bin, err := MarshalFrame(CodecBinary5, nil, &fr)
		if err != nil {
			t.Fatal(err)
		}
		viaBin, _, err := UnmarshalFrame(bin)
		if err != nil {
			t.Fatal(err)
		}
		jsn, err := MarshalFrame(CodecJSON, nil, &viaBin)
		if err != nil {
			t.Fatal(err)
		}
		viaJSON, _, err := UnmarshalFrame(jsn)
		if err != nil {
			t.Fatal(err)
		}
		if canonMsg(t, viaJSON.Msg) != canonMsg(t, fr.Msg) {
			t.Fatalf("binary→json cross decode:\n in  %s\n out %s",
				canonMsg(t, fr.Msg), canonMsg(t, viaJSON.Msg))
		}
	}
}

func TestCodecHandshakeFramesAreJSONOnly(t *testing.T) {
	hello := Frame{Hello: "B1", Codec: uint8(CodecBinary5)}
	if _, err := MarshalFrame(CodecBinary5, nil, &hello); err == nil {
		t.Fatal("binary marshal of a hello frame succeeded")
	}
	data, err := MarshalFrame(CodecJSON, nil, &hello)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := UnmarshalFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hello != "B1" || WireCodec(got.Codec) != CodecBinary5 {
		t.Fatalf("hello round trip = %+v", got)
	}
}

func TestCodecDecodeRejects(t *testing.T) {
	valid, err := MarshalFrame(CodecBinary5, nil, &codecTestFrames()[0])
	if err != nil {
		t.Fatal(err)
	}
	// A frame whose length prefix claims one payload byte more than
	// its kind consumes.
	trailing := append(append([]byte{}, valid...), 0)
	trailing[2]++
	cases := map[string][]byte{
		"empty":             {},
		"truncated header":  valid[:3],
		"truncated payload": valid[:len(valid)-1],
		"bad version":       {binMagic, 0x7F, 0, 0, 0, 0},
		// Frames under any other version byte are refused at the
		// header, however well-formed the payload: an older build's
		// publish (v1) and a newer one's (v6).
		"older version":    withVersion(valid, binVersion-4),
		"newer version":    withVersion(valid, binVersion+1),
		"trailing bytes":   trailing,
		"oversized length": {binMagic, binVersion, 0xFF, 0xFF, 0xFF, 0xFF},
		"hostile count":    {binMagic, binVersion, 3, 0, 0, 0, byte(broker.MsgUnsubscribeBatch), 0xFF, 0x7F},
		"unknown kind":     {binMagic, binVersion, 1, 0, 0, 0, 0x63},
		"not json":         []byte("garbage\n"),
		// Grammar rejects: the delta member-view hash is required and
		// never zero; the ping-req flags byte has two defined values.
		"zero delta hash":   {binMagic, binVersion, 10, 0, 0, 0, byte(broker.MsgGossipDelta), 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"bad pingreq flags": {binMagic, binVersion, 2, 0, 0, 0, byte(broker.MsgPingReq), 2},
	}
	for name, data := range cases {
		if _, _, err := UnmarshalFrame(data); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}

// withVersion returns a copy of a binary frame with its header version
// byte replaced.
func withVersion(frame []byte, v byte) []byte {
	out := append([]byte(nil), frame...)
	out[1] = v
	return out
}

// TestFrameReaderBinaryOnly pins the post-handshake rule: once the
// transport switched a reader to binaryOnly, a JSON frame — even a
// well-formed message — is a protocol error in both the blocking and
// the coalescing read, while binary frames still decode.
func TestFrameReaderBinaryOnly(t *testing.T) {
	frames := codecTestFrames()
	bin, err := MarshalFrame(CodecBinary5, nil, &frames[0])
	if err != nil {
		t.Fatal(err)
	}
	jsn, err := MarshalFrame(CodecJSON, nil, &frames[0])
	if err != nil {
		t.Fatal(err)
	}
	r := newFrameReader(bytes.NewReader(append(append([]byte{}, bin...), jsn...)))
	r.binaryOnly = true
	var fr Frame
	if err := r.read(&fr); err != nil || fr.Msg == nil {
		t.Fatalf("binary frame: %+v, %v", fr, err)
	}
	if err := r.read(&fr); !errors.Is(err, errJSONAfterHandshake) {
		t.Fatalf("JSON frame after the handshake: err = %v, want %v", err, errJSONAfterHandshake)
	}

	r = newFrameReader(bytes.NewReader(append(append([]byte{}, bin...), jsn...)))
	r.binaryOnly = true
	if err := r.read(&fr); err != nil {
		t.Fatal(err)
	}
	if ok, err := r.tryRead(&fr); ok || !errors.Is(err, errJSONAfterHandshake) {
		t.Fatalf("buffered JSON frame after the handshake: ok=%v err=%v", ok, err)
	}
}

// TestFrameReaderMixedStream feeds one stream holding JSON and binary
// frames back to back and checks the reader sniffs each correctly.
func TestFrameReaderMixedStream(t *testing.T) {
	frames := codecTestFrames()
	var stream []byte
	var err error
	for i, fr := range frames {
		codec := CodecJSON
		if i%2 == 1 {
			codec = CodecBinary5
		}
		if stream, err = MarshalFrame(codec, stream, &fr); err != nil {
			t.Fatal(err)
		}
	}
	r := newFrameReader(bytes.NewReader(stream))
	for i, want := range frames {
		var got Frame
		if err := r.read(&got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if canonMsg(t, got.Msg) != canonMsg(t, want.Msg) {
			t.Fatalf("frame %d:\n in  %s\n out %s", i, canonMsg(t, want.Msg), canonMsg(t, got.Msg))
		}
	}
}

// TestFrameReaderTryReadCoalesces pins the coalescing contract: with
// a burst fully buffered, tryRead yields every complete frame and
// stops — without blocking — at a partial tail frame.
func TestFrameReaderTryReadCoalesces(t *testing.T) {
	pubFrame := func(id string) Frame {
		return Frame{Msg: &broker.Message{Kind: broker.MsgPublish, PubID: id, Pub: subscription.NewPublication(1, 2)}}
	}
	var stream []byte
	var err error
	for _, id := range []string{"p1", "p2", "p3"} {
		fr := pubFrame(id)
		if stream, err = MarshalFrame(CodecBinary5, stream, &fr); err != nil {
			t.Fatal(err)
		}
	}
	tail := pubFrame("p4")
	tailBytes, err := MarshalFrame(CodecBinary5, nil, &tail)
	if err != nil {
		t.Fatal(err)
	}
	stream = append(stream, tailBytes[:len(tailBytes)-3]...) // partial frame

	r := newFrameReader(bytes.NewReader(stream))
	var first Frame
	if err := r.read(&first); err != nil {
		t.Fatal(err)
	}
	if first.Msg.PubID != "p1" {
		t.Fatalf("first frame = %+v", first.Msg)
	}
	var got []string
	for {
		var fr Frame
		ok, err := r.tryRead(&fr)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, fr.Msg.PubID)
	}
	if !reflect.DeepEqual(got, []string{"p2", "p3"}) {
		t.Fatalf("coalesced %v, want [p2 p3]", got)
	}
}
