(* Tests for the storage substrate: I/O stats, the LRU index, the buffer
   pool's caching and write-back behaviour, the in-memory page store, the
   binary codec, and the cost model.  The page-file store is tested with
   its arena in test_arena. *)

module Mem = Storage.Page_store.Mem (struct
  type t = string
end)

module Pool = Storage.Buffer_pool.Make (Mem)

let test_io_stats () =
  let s = Storage.Io_stats.create () in
  Storage.Io_stats.record_read s;
  Storage.Io_stats.record_read s;
  Storage.Io_stats.record_write s;
  Alcotest.(check int) "reads" 2 (Storage.Io_stats.reads s);
  Alcotest.(check int) "writes" 1 (Storage.Io_stats.writes s);
  Alcotest.(check int) "total" 3 (Storage.Io_stats.total_io s);
  let snap0 = Storage.Io_stats.snapshot s in
  Storage.Io_stats.record_read s;
  let d = Storage.Io_stats.diff (Storage.Io_stats.snapshot s) snap0 in
  Alcotest.(check int) "diff reads" 1 d.Storage.Io_stats.reads;
  Alcotest.(check int) "diff writes" 0 d.Storage.Io_stats.writes;
  Storage.Io_stats.reset s;
  Alcotest.(check int) "reset" 0 (Storage.Io_stats.total_io s)

let test_mem_store () =
  let s = Mem.create () in
  let a = Mem.alloc s and b = Mem.alloc s in
  Alcotest.(check bool) "distinct ids" false (Storage.Page_id.equal a b);
  Mem.write s a "hello";
  Mem.write s b "world";
  Alcotest.(check string) "read back" "hello" (Mem.read s a);
  Alcotest.(check int) "live" 2 (Mem.live_pages s);
  Mem.free s a;
  Alcotest.(check int) "live after free" 1 (Mem.live_pages s);
  Alcotest.(check bool) "freed missing" false (Mem.mem s a);
  Alcotest.check_raises "read freed" Not_found (fun () -> ignore (Mem.read s a));
  (* Ids are never recycled. *)
  let c = Mem.alloc s in
  Alcotest.(check bool) "no id reuse" false (Storage.Page_id.equal a c)

let test_lru_eviction_order () =
  let l = Storage.Evict.create ~capacity:2 () in
  Alcotest.(check (option (pair int string))) "no evict 1" None (Storage.Evict.add l 1 "a");
  Alcotest.(check (option (pair int string))) "no evict 2" None (Storage.Evict.add l 2 "b");
  (* Touch 1 so 2 becomes LRU. *)
  Alcotest.(check (option string)) "find 1" (Some "a") (Storage.Evict.find l 1);
  Alcotest.(check (option (pair int string))) "evicts 2" (Some (2, "b"))
    (Storage.Evict.add l 3 "c");
  Alcotest.(check int) "length" 2 (Storage.Evict.length l);
  Alcotest.(check bool) "1 kept" true (Storage.Evict.mem l 1);
  (* peek must not refresh recency. *)
  Alcotest.(check (option string)) "peek 1" (Some "a") (Storage.Evict.peek l 1);
  ignore (Storage.Evict.find l 3);
  Alcotest.(check (option (pair int string))) "evicts 1 (peek did not touch)"
    (Some (1, "a"))
    (Storage.Evict.add l 4 "d")

let test_lru_replace_and_remove () =
  let l = Storage.Evict.create ~capacity:2 () in
  ignore (Storage.Evict.add l 1 "a");
  ignore (Storage.Evict.add l 1 "a2");
  Alcotest.(check int) "replace keeps one entry" 1 (Storage.Evict.length l);
  Alcotest.(check (option string)) "replaced" (Some "a2") (Storage.Evict.find l 1);
  Alcotest.(check (option string)) "remove" (Some "a2") (Storage.Evict.remove l 1);
  Alcotest.(check int) "empty" 0 (Storage.Evict.length l);
  Alcotest.(check (option string)) "remove missing" None (Storage.Evict.remove l 1)

let test_second_chance_gives_a_lap () =
  let l = Storage.Evict.create ~policy:Storage.Evict.Second_chance ~capacity:2 () in
  ignore (Storage.Evict.add l 1 "a");
  ignore (Storage.Evict.add l 2 "b");
  (* Reference 1: the clock hand must clear its bit and take 2 instead. *)
  ignore (Storage.Evict.find l 1);
  Alcotest.(check (option (pair int string))) "spares referenced 1" (Some (2, "b"))
    (Storage.Evict.add l 3 "c");
  (* 1's bit was spent sparing it; with nothing referenced, the coldest
     unreferenced entry goes. *)
  Alcotest.(check bool) "1 still resident" true (Storage.Evict.mem l 1);
  let evicted = Storage.Evict.add l 4 "d" in
  Alcotest.(check bool) "second add evicts someone" true (evicted <> None)

let test_evict_pinning () =
  List.iter
    (fun policy ->
      let name s = s ^ " (" ^ Storage.Evict.policy_name policy ^ ")" in
      let l = Storage.Evict.create ~policy ~capacity:2 () in
      ignore (Storage.Evict.add l 1 "a");
      ignore (Storage.Evict.add l 2 "b");
      Storage.Evict.pin l 1;
      Storage.Evict.pin l 2;
      (* Everything pinned: the cache overcommits rather than evicting. *)
      Alcotest.(check (option (pair int string))) (name "overcommit") None
        (Storage.Evict.add l 3 "c");
      Alcotest.(check int) (name "grew past capacity") 3 (Storage.Evict.length l);
      (* The one unpinned entry is the only possible victim. *)
      Alcotest.(check (option (pair int string))) (name "evicts unpinned") (Some (3, "c"))
        (Storage.Evict.add l 4 "d");
      Storage.Evict.unpin l 1;
      Alcotest.(check int) (name "pinned count") 1 (Storage.Evict.pinned l))
    [ Storage.Evict.Lru; Storage.Evict.Second_chance ]

let prop_lru_against_model =
  (* Compare against a naive list-based LRU model under random ops. *)
  QCheck.Test.make ~name:"evict-lru matches naive model" ~count:200
    QCheck.(list (pair (int_range 0 9) (int_range 0 2)))
    (fun ops ->
      let capacity = 3 in
      let l = Storage.Evict.create ~capacity () in
      let model = ref [] (* most recent first: (key, value) *) in
      let model_find k =
        match List.assoc_opt k !model with
        | None -> None
        | Some v ->
            model := (k, v) :: List.remove_assoc k !model;
            Some v
      in
      let model_add k v =
        model := (k, v) :: List.remove_assoc k !model;
        if List.length !model > capacity then begin
          let rec split_last acc = function
            | [ last ] -> (List.rev acc, last)
            | x :: rest -> split_last (x :: acc) rest
            | [] -> assert false
          in
          let kept, evicted = split_last [] !model in
          model := kept;
          Some evicted
        end
        else None
      in
      List.for_all
        (fun (k, op) ->
          match op with
          | 0 -> Storage.Evict.find l k = model_find k
          | 1 -> Storage.Evict.add l k (string_of_int k) = model_add k (string_of_int k)
          | _ ->
              let a = Storage.Evict.remove l k in
              let b = List.assoc_opt k !model in
              model := List.remove_assoc k !model;
              a = b)
        ops)

let prop_evict_never_evicts_pinned =
  (* Under random add/find/pin/unpin traffic, no eviction under either
     policy may ever name a currently pinned key. *)
  QCheck.Test.make ~name:"evict respects pins (both policies)" ~count:300
    QCheck.(pair bool (list (pair (int_range 0 7) (int_range 0 3))))
    (fun (second_chance, ops) ->
      let policy =
        if second_chance then Storage.Evict.Second_chance else Storage.Evict.Lru
      in
      let l = Storage.Evict.create ~policy ~capacity:3 () in
      let pins = Hashtbl.create 8 in
      let pin_count k = Option.value ~default:0 (Hashtbl.find_opt pins k) in
      List.for_all
        (fun (k, op) ->
          match op with
          | 0 -> (
              match Storage.Evict.add l k (string_of_int k) with
              | None -> true
              | Some (victim, _) -> pin_count victim = 0)
          | 1 ->
              ignore (Storage.Evict.find l k);
              true
          | 2 ->
              if Storage.Evict.mem l k then begin
                Storage.Evict.pin l k;
                Hashtbl.replace pins k (pin_count k + 1)
              end;
              true
          | _ ->
              if pin_count k > 0 && Storage.Evict.mem l k then begin
                Storage.Evict.unpin l k;
                Hashtbl.replace pins k (pin_count k - 1)
              end;
              true)
        ops)

let test_buffer_pool_caching () =
  let stats = Storage.Io_stats.create () in
  let store = Mem.create ~stats () in
  let pool = Pool.create ~capacity:2 store in
  let a = Pool.alloc pool and b = Pool.alloc pool and c = Pool.alloc pool in
  Pool.write pool a "A";
  Pool.write pool b "B";
  Alcotest.(check int) "writes deferred" 0 (Storage.Io_stats.writes stats);
  Alcotest.(check string) "cached read" "A" (Pool.read pool a);
  Alcotest.(check int) "cache hit costs nothing" 0 (Storage.Io_stats.reads stats);
  (* Inserting a third page evicts the LRU (b) and writes it back. *)
  Pool.write pool c "C";
  Alcotest.(check int) "dirty eviction wrote" 1 (Storage.Io_stats.writes stats);
  (* Reading b again is a physical read. *)
  Alcotest.(check string) "read back evicted" "B" (Pool.read pool b);
  Alcotest.(check int) "miss costs a read" 1 (Storage.Io_stats.reads stats);
  Alcotest.(check int) "hits" 1 (Pool.hits pool);
  Alcotest.(check int) "misses" 1 (Pool.misses pool)

let test_buffer_pool_flush () =
  let stats = Storage.Io_stats.create () in
  let store = Mem.create ~stats () in
  let pool = Pool.create ~capacity:4 store in
  let a = Pool.alloc pool in
  Pool.write pool a "A";
  Pool.flush pool;
  Alcotest.(check int) "flush wrote dirty" 1 (Storage.Io_stats.writes stats);
  Pool.flush pool;
  Alcotest.(check int) "second flush writes nothing" 1 (Storage.Io_stats.writes stats);
  Pool.drop_cache pool;
  Alcotest.(check string) "read after drop is physical" "A" (Pool.read pool a);
  Alcotest.(check int) "one read" 1 (Storage.Io_stats.reads stats)

let test_buffer_pool_pinned_rewrite () =
  (* Regression: rewriting a resident pinned page (the Mvsbt root path)
     must not stack an extra Evict pin per write — one unpin must make
     the page evictable again. *)
  let store = Mem.create () in
  let pool = Pool.create ~capacity:2 store in
  let a = Pool.alloc pool in
  Pool.write pool a "A0";
  Pool.pin pool a;
  Pool.write pool a "A1";
  Pool.write pool a "A2";
  Alcotest.(check int) "one pin intent" 1 (Pool.pin_count pool a);
  Alcotest.(check int) "one resident pin" 1 (Pool.pinned pool);
  Pool.unpin pool a;
  Alcotest.(check int) "intent released" 0 (Pool.pin_count pool a);
  Alcotest.(check int) "no leaked pins" 0 (Pool.pinned pool);
  (* The formerly pinned page must be evictable: fill the pool past it. *)
  let b = Pool.alloc pool and c = Pool.alloc pool in
  Pool.write pool b "B";
  Pool.write pool c "C";
  let misses = Pool.misses pool in
  Alcotest.(check string) "a written back on eviction" "A2" (Pool.read pool a);
  Alcotest.(check int) "a evicted after unpin" (misses + 1) (Pool.misses pool)

let test_codec_roundtrip () =
  let w = Storage.Codec.Writer.create 64 in
  Storage.Codec.Writer.u8 w 200;
  Storage.Codec.Writer.i32 w (-123456);
  Storage.Codec.Writer.i64 w max_int;
  Storage.Codec.Writer.bool w true;
  Storage.Codec.Writer.bool w false;
  let r = Storage.Codec.Reader.create (Storage.Codec.Writer.contents w) in
  Alcotest.(check int) "u8" 200 (Storage.Codec.Reader.u8 r);
  Alcotest.(check int) "i32" (-123456) (Storage.Codec.Reader.i32 r);
  Alcotest.(check int) "i64" max_int (Storage.Codec.Reader.i64 r);
  Alcotest.(check bool) "bool t" true (Storage.Codec.Reader.bool r);
  Alcotest.(check bool) "bool f" false (Storage.Codec.Reader.bool r)

let test_codec_overflow () =
  let w = Storage.Codec.Writer.create 3 in
  Storage.Codec.Writer.u8 w 1;
  Alcotest.(check bool) "i32 overflows 3-byte page" true
    (try
       Storage.Codec.Writer.i32 w 5;
       false
     with Storage.Codec.Overflow _ -> true);
  let w = Storage.Codec.Writer.create 8 in
  Alcotest.(check bool) "value too large for i32" true
    (try
       Storage.Codec.Writer.i32 w (1 lsl 40);
       false
     with Storage.Codec.Overflow _ -> true)

let test_crc32 () =
  (* Known-answer vectors for CRC-32/IEEE (the zlib/PNG polynomial). *)
  Alcotest.(check int) "empty" 0 (Storage.Codec.crc32_string "");
  Alcotest.(check int) "check string" 0xCBF43926 (Storage.Codec.crc32_string "123456789");
  Alcotest.(check int) "fox" 0x414FA339
    (Storage.Codec.crc32_string "The quick brown fox jumps over the lazy dog");
  (* Incremental update equals one-shot over the concatenation. *)
  let b = Bytes.of_string "123456789" in
  let partial = Storage.Codec.crc32 b ~pos:0 ~len:4 in
  Alcotest.(check int) "incremental" 0xCBF43926
    (Storage.Codec.crc32_update partial b ~pos:4 ~len:5);
  Alcotest.(check int) "slice" (Storage.Codec.crc32_string "345")
    (Storage.Codec.crc32 b ~pos:2 ~len:3)

(* The byte-at-a-time table loop the slicing-by-8 kernel replaced: the
   reference it must agree with. *)
let crc_reference =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 1 to 8 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  fun crc get ~pos ~len ->
    let c = ref (crc lxor 0xFFFFFFFF) in
    for i = pos to pos + len - 1 do
      c := table.((!c lxor get i) land 0xff) lxor (!c lsr 8)
    done;
    !c lxor 0xFFFFFFFF land 0xFFFFFFFF

(* Random buffers, offsets and lengths 0-9000, through both buffer types
   and through [crc32_update] split at a random point. *)
let test_crc32_kernel () =
  let rng = Random.State.make [| 0xc7c |] in
  for _ = 1 to 400 do
    let len = if Random.State.int rng 4 = 0 then Random.State.int rng 16 else Random.State.int rng 9001 in
    let pos = Random.State.int rng 13 in
    let size = pos + len + Random.State.int rng 9 in
    let b = Bytes.init size (fun _ -> Char.chr (Random.State.int rng 256)) in
    let want = crc_reference 0 (Bytes.get_uint8 b) ~pos ~len in
    Alcotest.(check int) "bytes" want (Storage.Codec.crc32 b ~pos ~len);
    let z = Bigarray.Array1.create Bigarray.char Bigarray.c_layout size in
    Storage.Zcodec.blit_of_bytes b 0 z 0 size;
    Alcotest.(check int) "bigarray" want (Storage.Zcodec.crc32 z ~pos ~len);
    let cut = Random.State.int rng (len + 1) in
    let first = Storage.Codec.crc32 b ~pos ~len:cut in
    Alcotest.(check int) "update" want
      (Storage.Codec.crc32_update first b ~pos:(pos + cut) ~len:(len - cut));
    Alcotest.(check int) "update, reference"
      (crc_reference first (Bytes.get_uint8 b) ~pos:(pos + cut) ~len:(len - cut))
      (Storage.Codec.crc32_update first b ~pos:(pos + cut) ~len:(len - cut))
  done;
  let b = Bytes.create 8 in
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises "range outside buffer"
        (Invalid_argument "Codec.crc32_update: range outside buffer") (fun () ->
          ignore (Storage.Codec.crc32 b ~pos ~len)))
    [ (-1, 2); (0, 9); (7, 2); (0, -1); (9, 0) ]

let test_cost_model () =
  let est = Storage.Cost_model.estimate_s ~model:Storage.Cost_model.default ~ios:100 ~cpu_s:0.5 in
  Alcotest.(check (float 1e-9)) "100 I/Os at 10ms + 0.5s cpu" 1.5 est;
  let stats = Storage.Io_stats.create () in
  let x, m =
    Storage.Cost_model.measure ~stats (fun () ->
        Storage.Io_stats.record_read stats;
        Storage.Io_stats.record_read stats;
        Storage.Io_stats.record_write stats;
        42)
  in
  Alcotest.(check int) "result" 42 x;
  Alcotest.(check int) "reads attributed" 2 m.Storage.Cost_model.reads;
  Alcotest.(check int) "writes attributed" 1 m.Storage.Cost_model.writes;
  let s = Storage.Cost_model.add m Storage.Cost_model.zero in
  Alcotest.(check int) "add zero" 2 s.Storage.Cost_model.reads

let () =
  Alcotest.run "storage"
    [
      ( "stats+stores",
        [
          Alcotest.test_case "io stats" `Quick test_io_stats;
          Alcotest.test_case "mem store" `Quick test_mem_store;
          Alcotest.test_case "cost model" `Quick test_cost_model;
        ] );
      ( "evict",
        [
          Alcotest.test_case "lru eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "replace/remove" `Quick test_lru_replace_and_remove;
          Alcotest.test_case "second-chance lap" `Quick test_second_chance_gives_a_lap;
          Alcotest.test_case "pinning" `Quick test_evict_pinning;
          QCheck_alcotest.to_alcotest prop_lru_against_model;
          QCheck_alcotest.to_alcotest prop_evict_never_evicts_pinned;
        ] );
      ( "buffer-pool",
        [
          Alcotest.test_case "caching" `Quick test_buffer_pool_caching;
          Alcotest.test_case "flush" `Quick test_buffer_pool_flush;
          Alcotest.test_case "pinned rewrite" `Quick test_buffer_pool_pinned_rewrite;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "overflow" `Quick test_codec_overflow;
          Alcotest.test_case "crc32" `Quick test_crc32;
          Alcotest.test_case "crc32 kernel = byte loop" `Quick test_crc32_kernel;
        ] );
    ]
