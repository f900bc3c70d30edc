open Sparse_graph
open Congest

type token = {
  origin : int;
  seq : int;
}

type result = {
  delivered : (int * token list) list;
  undelivered : int;
  expired : int;
  held : int;
  stats : Network.stats;
}

(* Tokens travel as single immediate ints through the simulator's int
   codec: [id * base + steps], where [id] numbers the tokens origin by
   origin (prefix sums of [tokens_of]) and [steps] is the number of lazy
   steps taken so far, [0 <= steps < base = walk_len + 1]. A step is
   [tok + 1]; ids are decoded back to {origin; seq} only when the result
   is built. *)

(* a growable FIFO of ints on a power-of-two ring; starts empty and
   doubles, so an idle vertex holds no buffer *)
type ring = {
  mutable buf : int array;
  mutable head : int;
  mutable len : int;
}

let ring () = { buf = [||]; head = 0; len = 0 }

(* lint: hot *)
let ring_push q x =
  let cap = Array.length q.buf in
  if q.len = cap then begin
    let cap' = if cap = 0 then 8 else 2 * cap in
    (* lint: allow A001 amortized doubling growth *)
    let b = Array.make cap' 0 in
    for i = 0 to q.len - 1 do
      b.(i) <- q.buf.((q.head + i) land (cap - 1))
    done;
    q.buf <- b;
    q.head <- 0
  end;
  q.buf.((q.head + q.len) land (Array.length q.buf - 1)) <- x;
  q.len <- q.len + 1

(* lint: hot *)
let ring_pop q =
  let x = q.buf.(q.head) in
  q.head <- (q.head + 1) land (Array.length q.buf - 1);
  q.len <- q.len - 1;
  x

(* Per-vertex state. [active] holds the tokens that walk this round,
   oldest first. [waiting.(j)] parks tokens that sampled a move to
   neighbor slot j (index into the cached intra row) until edge capacity
   lets them transmit. *)
type state = {
  rng : Random.State.t;
  active : ring;
  waiting : ring array;
  mutable absorbed_rev : int list;  (* token ids, newest first *)
  mutable expired : int;            (* walk budget exhausted here *)
  mutable holding : int;            (* tokens in [active] + [waiting] *)
}

let token_words = 3 (* origin, seq, step counter *)

(* one walk step for every token currently active: pop, expire or sample
   (stay -> back of [active], move -> the sampled neighbor's waiting
   ring). Processes exactly the tokens active on entry, so re-queued
   stays are not double-stepped. Returns the number expired. *)
(* lint: hot *)
let advance_active st (row : int array) ~base ~walk_len =
  let deg = Array.length row in
  let expired = ref 0 in
  for _ = 1 to st.active.len do
    let tok = ring_pop st.active in
    if tok mod base >= walk_len then incr expired
    else begin
      let stay = deg = 0 || Random.State.bool st.rng in
      if stay then ring_push st.active (tok + 1)
      else ring_push st.waiting.(Random.State.int st.rng deg) (tok + 1)
    end
  done;
  !expired

let run ?exec ?faults (view : Cluster_view.t) ~leader_of ~tokens_of ~walk_len ~seed
    ~max_rounds =
  Obs.Span.with_ "distr.walk_routing" @@ fun () ->
  let g = view.graph in
  let n = Graph.n g in
  let intra = view.Cluster_view.intra in
  let budget =
    match Network.congest_bandwidth n with
    | Network.Congest b -> b
    | Network.Local -> max_int
  in
  let token_bits = Bits.words n token_words in
  let capacity = max 1 (budget / token_bits) in
  (* first.(v) = id of v's token 0; first.(n) = total *)
  let first = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    first.(v + 1) <- first.(v) + tokens_of v
  done;
  let total = first.(n) in
  (* a token never takes more than [max 0 walk_len] steps *)
  let base = max 1 (walk_len + 1) in
  if total > max_int / base then
    invalid_arg
      (Printf.sprintf
         "Walk_routing.run: %d tokens of walk length %d overflow a packed int"
         total walk_len);
  let init (ctx : Network.ctx) =
    let v = ctx.id in
    let rng = Random.State.make [| seed; v; 7919 |] in
    let deg = Array.length intra.(v) in
    let st =
      {
        rng;
        active = ring ();
        waiting = Array.init deg (fun _ -> ring ());
        absorbed_rev = [];
        expired = 0;
        holding = 0;
      }
    in
    if leader_of.(v) = v then
      (* the leader's own tokens are already delivered; prepended in
         ascending seq so the final reversal lists them in seq order *)
      for id = first.(v) to first.(v + 1) - 1 do
        st.absorbed_rev <- id :: st.absorbed_rev
      done
    else
      for id = first.(v) to first.(v + 1) - 1 do
        ring_push st.active (id * base);
        st.holding <- st.holding + 1
      done;
    st
  in
  let round _r (ctx : Network.ctx) st inbox =
    let v = ctx.id in
    (* receive tokens in inbox (sender-ascending) order; leader absorbs *)
    if leader_of.(v) = v then
      List.iter
        (fun (_, tok) -> st.absorbed_rev <- (tok / base) :: st.absorbed_rev)
        inbox
    else
      List.iter
        (fun (_, tok) ->
          ring_push st.active tok;
          st.holding <- st.holding + 1)
        inbox;
    (* advance each active token by one sampled lazy step *)
    let row = intra.(v) in
    let expired = advance_active st row ~base ~walk_len in
    st.expired <- st.expired + expired;
    st.holding <- st.holding - expired;
    (* transmit waiting tokens, at most [capacity] per neighbor per round;
       the send list itself is the simulator's API boundary and the only
       per-round allocation left. Built by descending slot so the slots
       come out ascending. *)
    let send = ref [] in
    for j = Array.length row - 1 downto 0 do
      let q = st.waiting.(j) in
      let k = min capacity q.len in
      for _ = 1 to k do
        send := (row.(j), ring_pop q) :: !send
      done;
      st.holding <- st.holding - k
    done;
    (* event-driven: a vertex holding tokens keeps walking (and drawing
       from its RNG) every round; an empty vertex sleeps until a token
       arrives *)
    Network.step st ~send:!send
      ?wake_after:(if st.holding > 0 then Some 1 else None)
  in
  let states, stats =
    Network.run ?exec ?faults g ~schedule:Network.Event_driven
      ~codec:Network.int_codec
      ~bandwidth:(Network.congest_bandwidth n)
      ~msg_bits:(fun _ -> token_bits)
      ~init ~round ~max_rounds
  in
  (* the origin of token [id] is the last vertex whose first id is at
     most [id] (vertices without tokens share their successor's) *)
  let decode id =
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if first.(mid) <= id then lo := mid else hi := mid - 1
    done;
    { origin = !lo; seq = id - first.(!lo) }
  in
  let delivered = ref [] in
  let got = ref 0 in
  let expired = ref 0 in
  let held = ref 0 in
  Array.iteri
    (fun v st ->
      if st.absorbed_rev <> [] then begin
        let toks = List.rev_map decode st.absorbed_rev in
        got := !got + List.length toks;
        delivered := (v, toks) :: !delivered
      end;
      expired := !expired + st.expired;
      held := !held + st.holding)
    states;
  {
    delivered = List.rev !delivered;
    (* counted against the originated total, so tokens lost to faults or
       in flight at the halting round are still accounted for *)
    undelivered = total - !got;
    expired = !expired;
    held = !held;
    stats;
  }

let total_tokens (view : Cluster_view.t) ~tokens_of =
  let total = ref 0 in
  for v = 0 to Graph.n view.graph - 1 do
    total := !total + tokens_of v
  done;
  !total

let delivery_rate view ~tokens_of result =
  let total = total_tokens view ~tokens_of in
  if total = 0 then 1.
  else begin
    let got =
      List.fold_left (fun acc (_, ts) -> acc + List.length ts) 0
        result.delivered
    in
    float_of_int got /. float_of_int total
  end

let check (view : Cluster_view.t) ~leader_of ~tokens_of result =
  let seen = Hashtbl.create 64 in
  let ok = ref true in
  List.iter
    (fun (leader, toks) ->
      List.iter
        (fun t ->
          if Hashtbl.mem seen t then ok := false;
          Hashtbl.add seen t ();
          if leader_of.(t.origin) <> leader then ok := false;
          if t.seq < 0 || t.seq >= tokens_of t.origin then ok := false)
        toks)
    result.delivered;
  let got = Hashtbl.length seen in
  !ok && got + result.undelivered = total_tokens view ~tokens_of
