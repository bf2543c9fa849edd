(* The benchmark's own bookkeeping: percentiles and the tail rule, failure
   accounting, workload fingerprints and the result line. Nothing here
   depends on the program under test, so the rules can be tested alone. *)

(* ------------------------------------------------------------------ *)
(* Percentiles                                                         *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted, non-empty array: the smallest
   sample with at least [p]% of the samples at or below it. *)
let rank_value a p =
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  match xs with
  | [] -> invalid_arg "Summary.median: no samples"
  | _ ->
    let a = sorted xs in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type tail = { pct : int; value : float; n : int; beyond : int }

(* The highest whole percentile with at least [min_beyond] samples strictly
   above its rank: floor (100 (n - min_beyond) / n). With [n <= min_beyond]
   there is no such percentile and no tail is reported. *)
let tail ?(min_beyond = 10) xs =
  let n = List.length xs in
  if n <= min_beyond then None
  else
    let a = sorted xs in
    let pct = 100 * (n - min_beyond) / n in
    let rank = max 1 (int_of_float (Float.ceil (float_of_int (pct * n) /. 100.))) in
    Some { pct; value = a.(rank - 1); n; beyond = n - rank }

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* ------------------------------------------------------------------ *)
(* Failure accounting                                                  *)
(* ------------------------------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let record t ~ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let failed_frac t =
  if t.attempted = 0 then 0. else float_of_int t.failed /. float_of_int t.attempted

(* The tally a result line may carry: at least one attempt, and no more
   failures than attempts. *)
let check_tally t =
  if t.attempted < 1 then Error "no operation was attempted"
  else if t.failed < 0 || t.failed > t.attempted then
    Error (Printf.sprintf "failed %d out of range for %d attempts" t.failed t.attempted)
  else Ok ()

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)
(* ------------------------------------------------------------------ *)

(* A workload's input identity: named fields in a fixed order. *)
type fingerprint = (string * string) list

(* Fields whose values differ, or that one side lacks, as
   "field: expected E, got A" lines. *)
let fingerprint_drift ~expected ~actual =
  let show = function Some v -> v | None -> "<missing>" in
  let names =
    List.map fst expected
    @ List.filter (fun k -> not (List.mem_assoc k expected)) (List.map fst actual)
  in
  List.filter_map
    (fun k ->
      let e = List.assoc_opt k expected and a = List.assoc_opt k actual in
      if e = a then None
      else Some (Printf.sprintf "%s: expected %s, got %s" k (show e) (show a)))
    names

(* A checksum of floats that ignores the last few bits, so the same
   inputs hash alike whichever libm rounded them. *)
let float_digest xs =
  let b = Buffer.create 4096 in
  Array.iter (fun x -> Buffer.add_string b (Printf.sprintf "%.9g;" x)) xs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* Result line                                                         *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

type result = { correct : bool; attempted : int; failed : int; metrics : metric list }

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit of the measurement; JSON has no NaN or infinity, so a metric
   that is not a finite number is a bug in the benchmark. *)
let json_float name x =
  if not (Float.is_finite x) then
    invalid_arg (Printf.sprintf "metric %s is not finite (%g)" name x);
  Printf.sprintf "%.17g" x

let to_json r =
  let metric m =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
      (json_float m.name m.value) (json_string m.unit_)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

(* A small JSON reader, enough to read a result line back. *)
type json = Null | Bool of bool | Num of float | Str of string | Arr of json list | Obj of (string * json) list

exception Parse_error of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      incr pos;
      skip_ws ()
    | _ -> ()
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string_body () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        (match peek () with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' when !pos + 4 < n ->
          let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
          if code > 0x7f then fail "non-ASCII escape";
          Buffer.add_char b (Char.chr code);
          pos := !pos + 4
        | _ -> fail "bad escape");
        incr pos;
        go ()
      | '\000' when !pos >= n -> fail "unterminated string"
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    while
      !pos < n && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x -> x
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then (incr pos; Obj [])
      else
        let rec fields acc =
          skip_ws ();
          let k = string_body () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' -> incr pos; fields ((k, v) :: acc)
          | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        fields []
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then (incr pos; Arr [])
      else
        let rec items acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' -> incr pos; items (v :: acc)
          | ']' -> incr pos; Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
    | '"' -> Str (string_body ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Num (number ())
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing characters";
  v

let of_json s =
  let field k = function
    | Obj kv -> (match List.assoc_opt k kv with Some v -> v | None -> raise (Parse_error ("missing " ^ k)))
    | _ -> raise (Parse_error "expected an object")
  in
  let int_of k v =
    match field k v with
    | Num x when Float.is_integer x -> int_of_float x
    | _ -> raise (Parse_error (k ^ " is not a whole number"))
  in
  let top = parse_json s in
  (match top with
  | Obj kv ->
    let keys = List.sort compare (List.map fst kv) in
    if keys <> [ "attempted"; "correct"; "failed"; "metrics" ] then
      raise (Parse_error "result keys must be exactly correct, attempted, failed, metrics")
  | _ -> raise (Parse_error "expected an object"));
  let correct =
    match field "correct" top with Bool b -> b | _ -> raise (Parse_error "correct is not a bool")
  in
  let metrics =
    match field "metrics" top with
    | Obj kv ->
      List.map
        (fun (name, m) ->
          match (field "value" m, field "unit" m) with
          | Num value, Str unit_ -> { name; value; unit_ }
          | _ -> raise (Parse_error ("malformed metric " ^ name)))
        kv
    | _ -> raise (Parse_error "metrics is not an object")
  in
  { correct; attempted = int_of "attempted" top; failed = int_of "failed" top; metrics }

(* The (name, unit) pairs that a BENCHMARK.json file lists under [key]
   ("end_to_end" or "per_layer"), in file order. *)
let catalogue text key =
  let bad () = raise (Parse_error ("BENCHMARK.json has no well-formed " ^ key ^ " list")) in
  match parse_json text with
  | Obj kv -> (
    match List.assoc_opt key kv with
    | Some (Arr ms) ->
      List.map
        (function
          | Obj m -> (
            match (List.assoc_opt "name" m, List.assoc_opt "unit" m) with
            | Some (Str n), Some (Str u) -> (n, u)
            | _ -> bad ())
          | _ -> bad ())
        ms
    | _ -> bad ())
  | _ -> bad ()
