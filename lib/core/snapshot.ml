open Relation
module Table_store = Storage.Table_store

let format_version = 1

(* ------------------------------------------------------------------ *)
(* Serialisation *)

let schema_to_json schema =
  Sjson.List (List.map Column.to_json (Schema.columns schema))

let rows_to_json rows =
  Sjson.List
    (List.map
       (fun row -> Sjson.List (List.map Value.to_json (Array.to_list row)))
       rows)

let store_to_json store =
  Sjson.Obj
    [
      ("name", Sjson.String (Table_store.name store));
      ("table_id", Sjson.Int (Table_store.table_id store));
      ("schema", schema_to_json (Table_store.schema store));
      ( "key_ordinals",
        Sjson.List
          (List.map (fun i -> Sjson.Int i) (Table_store.key_ordinals store)) );
      ( "indexes",
        Sjson.List
          (List.map
             (fun ({ Table_store.index_name; key_ordinals } : Table_store.index) ->
               Sjson.Obj
                 [
                   ("name", Sjson.String index_name);
                   ( "key_ordinals",
                     Sjson.List (List.map (fun i -> Sjson.Int i) key_ordinals)
                   );
                 ])
             (Table_store.indexes store)) );
      ("rows", rows_to_json (Table_store.scan store));
    ]

let table_entry_to_json = function
  | `L lt ->
      Sjson.Obj
        [
          ("kind", Sjson.String "ledger");
          ( "ledger_kind",
            Sjson.String
              (match Ledger_table.kind lt with
              | Ledger_table.Append_only -> "append_only"
              | Ledger_table.Updateable -> "updateable") );
          ("name", Sjson.String (Ledger_table.name lt));
          ("table_id", Sjson.Int (Ledger_table.table_id lt));
          ("main", store_to_json (Ledger_table.main lt));
          ( "history",
            match Ledger_table.history lt with
            | Some h -> store_to_json h
            | None -> Sjson.Null );
        ]
  | `R store ->
      Sjson.Obj [ ("kind", Sjson.String "regular"); ("store", store_to_json store) ]

let save db =
  let raw = Database.expose db in
  Sjson.Obj
    [
      ("format_version", Sjson.Int format_version);
      ( "wal_lsn",
        Sjson.Int (Aries.Wal.last_lsn (Database_ledger.wal raw.Database.raw_ledger)) );
      ("name", Sjson.String raw.Database.raw_name);
      ("created", Sjson.Float raw.Database.raw_created);
      ("next_table_id", Sjson.Int raw.Database.raw_next_table_id);
      ("next_meta_event", Sjson.Int raw.Database.raw_next_meta_event);
      ( "tables",
        Sjson.List (List.map table_entry_to_json raw.Database.raw_tables) );
      ("ledger", Database_ledger.to_snapshot raw.Database.raw_ledger);
    ]

(* ------------------------------------------------------------------ *)
(* On-disk container

   A saved snapshot is wrapped in a one-line header:

       SQLLEDGER-SNAPSHOT v2 crc32=CCCCCCCC len=N
       <exactly N bytes of JSON>

   so a reader can tell a complete, uncorrupted snapshot from a torn or
   bit-flipped one before parsing it — that check is what lets recovery
   fall back to an older generation instead of trusting garbage; the body
   is checked by [Fault.Crc_frame.check]. Saves are atomic: tmp + fsync +
   rename, with the previous generation kept as [path].prev. *)

let container_magic = "SQLLEDGER-SNAPSHOT v2"

let snapshot_points = "snapshot"

let () = Fault.Fsutil.register_atomic_points snapshot_points

let save_to_file db ~path =
  let body = Sjson.to_string ~pretty:true (save db) in
  let crc = Fault.Crc32.string body in
  let contents =
    Printf.sprintf "%s crc32=%08lx len=%d\n%s" container_magic crc
      (String.length body) body
  in
  Fault.Fsutil.atomic_write ~keep_previous:true ~point_prefix:snapshot_points
    ~path contents

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
      let fail fmt = Printf.ksprintf (fun e -> Error (path ^ ": " ^ e)) fmt in
      let m = String.length container_magic in
      match String.index_opt text '\n' with
      | Some nl when String.starts_with ~prefix:container_magic text -> (
          match
            Scanf.sscanf_opt (String.sub text m (nl - m)) " crc32=%8lx len=%d%!"
              (fun crc len -> (crc, len))
          with
          | None -> fail "malformed snapshot header"
          | Some (crc, len) -> (
              let off = nl + 1 in
              match
                Fault.Crc_frame.check ~crc ~len text off (String.length text - off)
              with
              | Error e -> fail "snapshot %s (torn or truncated)" e
              | Ok () -> (
                  try Ok (Sjson.of_string (String.sub text off len))
                  with Sjson.Parse_error e -> fail "%s" e)))
      | _ -> fail "not a %s container" container_magic)

let wal_lsn json =
  match Sjson.member "wal_lsn" json with Sjson.Int i -> i | _ -> 0

(* ------------------------------------------------------------------ *)
(* Loading *)

exception Bad of string

let failf fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let schema_of_json json =
  let columns =
    List.map
      (fun cj ->
        match Column.of_json cj with
        | Ok c -> c
        | Error e -> failf "%s" e)
      (Sjson.get_list json)
  in
  Schema.make columns

let store_of_json json =
  let name = Sjson.get_string (Sjson.member "name" json) in
  let table_id = Sjson.get_int (Sjson.member "table_id" json) in
  let schema = schema_of_json (Sjson.member "schema" json) in
  let key_ordinals =
    List.map Sjson.get_int (Sjson.get_list (Sjson.member "key_ordinals" json))
  in
  let store = Table_store.create ~name ~table_id ~schema ~key_ordinals in
  List.iter
    (fun row_json ->
      let cells = Sjson.get_list row_json in
      if List.length cells <> Schema.arity schema then
        failf "%s: row arity mismatch" name;
      let row =
        Array.of_list
          (List.mapi
             (fun i cell ->
               let col : Column.t = Schema.column schema i in
               match Value.of_json col.dtype cell with
               | Some v -> v
               | None -> failf "%s: bad value in column %s" name col.name)
             cells)
      in
      Table_store.insert store row)
    (Sjson.get_list (Sjson.member "rows" json));
  List.iter
    (fun ij ->
      Table_store.create_index store
        ~name:(Sjson.get_string (Sjson.member "name" ij))
        ~key_ordinals:
          (List.map Sjson.get_int
             (Sjson.get_list (Sjson.member "key_ordinals" ij))))
    (Sjson.get_list (Sjson.member "indexes" json));
  store

let table_entry_of_json json =
  match Sjson.member "kind" json with
  | Sjson.String "regular" -> `R (store_of_json (Sjson.member "store" json))
  | Sjson.String "ledger" ->
      let kind =
        match Sjson.member "ledger_kind" json with
        | Sjson.String "append_only" -> Ledger_table.Append_only
        | Sjson.String "updateable" -> Ledger_table.Updateable
        | _ -> failf "bad ledger kind"
      in
      let main = store_of_json (Sjson.member "main" json) in
      let history =
        match Sjson.member "history" json with
        | Sjson.Null -> None
        | h -> Some (store_of_json h)
      in
      `L
        (Ledger_table.unsafe_assemble
           ~name:(Sjson.get_string (Sjson.member "name" json))
           ~table_id:(Sjson.get_int (Sjson.member "table_id" json))
           ~kind ~main ~history)
  | _ -> failf "bad table kind"

let load ?(clock = Unix.gettimeofday) ?wal_path json =
  try
    (match Sjson.member "format_version" json with
    | Sjson.Int v when v = format_version -> ()
    | _ -> failf "unsupported snapshot format");
    let ledger =
      match
        Database_ledger.of_snapshot ?wal_path (Sjson.member "ledger" json)
      with
      | Ok l -> l
      | Error e -> failf "%s" e
    in
    let created =
      match Sjson.member "created" json with
      | Sjson.Float f -> f
      | Sjson.Int i -> float_of_int i
      | _ -> failf "missing create time"
    in
    let raw =
      {
        Database.raw_name = Sjson.get_string (Sjson.member "name" json);
        raw_created = created;
        raw_next_table_id = Sjson.get_int (Sjson.member "next_table_id" json);
        raw_next_meta_event =
          Sjson.get_int (Sjson.member "next_meta_event" json);
        raw_tables =
          List.map table_entry_of_json
            (Sjson.get_list (Sjson.member "tables" json));
        raw_ledger = ledger;
      }
    in
    Ok (Database.assemble ~clock raw)
  with
  | Bad e -> Error e
  | Invalid_argument e | Failure e -> Error ("malformed snapshot: " ^ e)
  | Types.Ledger_error e -> Error e

let load_from_file ?clock ?wal_path ~path () =
  Result.bind (read_file path) (load ?clock ?wal_path)
