include Taskalloc_json.Json
